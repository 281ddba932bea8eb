"""Fig. 3 — power distribution in the mc-ref architecture.

The paper motivates instruction-memory sharing with this pie chart: the
dedicated per-core IM banks burn 54 % of mc-ref's power while executing
the benchmark (cores 27 %, DM 11 %, D-Xbar 3 %, clock 5 %).
"""

from __future__ import annotations

from repro.experiments.common import Comparison, ExperimentResult
from repro.power.calibration import calibrated_set

#: Paper shares, in percent.
PAPER_SHARES = {"cores": 27.0, "dm": 11.0, "dxbar": 3.0, "im": 54.0,
                "clock": 5.0}


def run(fast_forward: bool = True) -> ExperimentResult:
    cal = calibrated_set(fast_forward=fast_forward)
    model = cal.power_model("mc-ref")
    # The distribution is frequency- and voltage-independent (all
    # components scale together); evaluate at the Table II point.
    frequency = 8e6 / cal.ops_per_cycle("mc-ref")
    breakdown = model.dynamic_power(frequency, cal.technology.v_nom,
                                    post_layout=False)
    shares = breakdown.shares()

    result = ExperimentResult(
        exp_id="fig3",
        title="Power distribution in the mc-ref architecture",
        headers=["component", "paper %", "measured %"],
    )
    for component, paper_share in PAPER_SHARES.items():
        measured = 100.0 * shares[component]
        result.rows.append([component, paper_share, round(measured, 2)])
        result.comparisons.append(Comparison(
            metric=f"{component} share of mc-ref power",
            paper=paper_share, measured=measured, unit="%"))
    result.notes.append(
        "the dominant IM share is what motivates the proposed I-Xbar "
        "with instruction broadcast (paper Section III-C)")
    return result
