"""Section IV-C1 — energy efficiency of the TamaRISC core.

The paper: "TamaRISC ... consumes only 15.6 pJ/Ops at 1.0 V", against
Kwong et al. (47 pJ/cycle at 1.0 V, 130 nm, >1 cycle/instruction) and
Ickes et al. (19.7–27.0 pJ/Op estimated at 1.0 V, 65 nm, 32-bit).
"""

from __future__ import annotations

from repro.experiments.common import Comparison, ExperimentResult
from repro.power.calibration import calibrated_set

#: Literature comparison points quoted by the paper (pJ/op at 1.0 V).
LITERATURE = (
    ("TamaRISC (this work, 90 nm, 16-bit)", 15.6),
    ("Kwong et al. [15] (130 nm, 16-bit, pJ/cycle)", 47.0),
    ("Ickes et al. [16] (65 nm, 32-bit, low estimate)", 19.7),
    ("Ickes et al. [16] (65 nm, 32-bit, high estimate)", 27.0),
)


def run(fast_forward: bool = True) -> ExperimentResult:
    cal = calibrated_set(fast_forward=fast_forward)
    model = cal.power_model("mc-ref")
    technology = cal.technology
    # Core-only dynamic energy per retired instruction at 1.0 V.
    rates = cal.results["mc-ref"].stats.activity_rates()
    per_instr_nominal = model.cycle_energy().cores / rates["core_active"]
    per_instr_1v0 = per_instr_nominal * (1.0 / technology.v_nom) ** 2

    result = ExperimentResult(
        exp_id="core",
        title="Energy efficiency of the TamaRISC core (Section IV-C1)",
        headers=["core", "pJ/op at 1.0 V"],
    )
    for name, value in LITERATURE:
        result.rows.append([name, value])
    result.rows.append(["TamaRISC (measured, this reproduction)",
                        round(per_instr_1v0 * 1e12, 2)])
    result.comparisons.append(Comparison(
        metric="TamaRISC energy per operation at 1.0 V",
        paper=15.6, measured=per_instr_1v0 * 1e12, unit="pJ/op"))
    ratio = per_instr_1v0 * 1e12 / 47.0
    result.comparisons.append(Comparison(
        metric="TamaRISC vs Kwong et al. energy ratio",
        paper=15.6 / 47.0, measured=ratio,
        note="TamaRISC additionally retires one instruction per cycle"))
    return result
