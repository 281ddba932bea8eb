"""Battery lifetime — quantifying the paper's motivation (extension).

The abstract promises to "extend the lifetime of health monitoring
systems"; this study converts the Fig. 7 operating points into days on
typical wearable batteries.  The real-time 8-lead compression mission
needs ~261 kOps/s sustained; the 5 kOps/s point is the paper's
leakage-dominated idle.
"""

from __future__ import annotations

from repro.experiments.common import ARCHES, Comparison, ExperimentResult
from repro.power.calibration import calibrated_set
from repro.power.lifetime import Battery, CR2032, CR2477, lifetime_days

#: (label, workload Ops/s)
MISSIONS = (
    ("idle monitoring (5 kOps/s)", 5e3),
    ("8-lead real-time compression (261 kOps/s)", 261e3),
    ("compression + on-node analytics (5 MOps/s)", 5e6),
)


def run(fast_forward: bool = True) -> ExperimentResult:
    cal = calibrated_set(fast_forward=fast_forward)
    batteries = [Battery.from_preset(CR2032), Battery.from_preset(CR2477)]

    result = ExperimentResult(
        exp_id="lifetime",
        title="Battery lifetime of the digital subsystem (extension study)",
        headers=["mission", "arch", "power [uW]"]
        + [f"{battery.name} [days]" for battery in batteries],
    )
    lifetimes = {}
    for label, workload in MISSIONS:
        for arch in ARCHES:
            power = cal.workload_power(arch, workload)
            days = [lifetime_days(power, battery)
                    for battery in batteries]
            lifetimes[(label, arch)] = days[0]
            result.rows.append([label, arch, round(power * 1e6, 3)]
                               + [round(d, 1) for d in days])

    mission = MISSIONS[1][0]
    extension = lifetimes[(mission, "ulpmc-bank")] \
        / lifetimes[(mission, "mc-ref")]
    result.comparisons.append(Comparison(
        metric="lifetime extension of ulpmc-bank vs mc-ref (real-time "
               "mission)",
        paper=1.0 / (1.0 - 0.388), measured=extension,
        note="a ~38.8% power saving reads as a ~1.6x lifetime extension "
             "when the digital subsystem dominates"))
    result.notes.append(
        "digital subsystem only — a real node adds the analog front-end "
        "and radio, which dilute the saving (extension beyond the paper)")
    return result
