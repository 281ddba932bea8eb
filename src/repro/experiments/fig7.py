"""Fig. 7 — normalised power consumption at various workloads.

The paper's headline result: across workloads from 5 kOps/s to
637 MOps/s the proposed ulpmc-bank design consumes the least power —
39.5 % savings at the top (where dynamic power dominates) and ~38.8 % at
the bottom (where the circuits "almost only leak" and the IM power gating
carries the saving).  ulpmc-int matches mc-ref at ~5 kOps/s because it
cannot gate banks: its dynamic advantage vanishes under leakage.

DVFS policy as in the paper: voltage + frequency scaling above the
~10 MOps/s knee, frequency-only below it.
"""

from __future__ import annotations

from repro.experiments.common import ARCHES, Comparison, ExperimentResult
from repro.power.calibration import calibrated_set

#: The paper's x-axis ticks (Ops/s); the top point is the largest
#: workload all three designs reach (636.9 MOps/s in the paper).
WORKLOADS = (5e3, 50e3, 100e3, 500e3, 5e6, 50e6, 500e6)

PAPER_CHECKS = (
    # (workload, arch, paper mW)
    (636.9e6, "mc-ref", 397.4),
    (636.9e6, "ulpmc-int", 279.8),
    (636.9e6, "ulpmc-bank", 240.4),
    (10e6, "mc-ref", 1.11),
    (10e6, "ulpmc-int", 0.79),
    (10e6, "ulpmc-bank", 0.66),
)


def run(fast_forward: bool = True) -> ExperimentResult:
    cal = calibrated_set(fast_forward=fast_forward)
    top = min(cal.max_workload(arch) for arch in ARCHES)
    workloads = list(WORKLOADS) + [top]

    result = ExperimentResult(
        exp_id="fig7",
        title="Normalised power consumption at various workloads",
        headers=["workload [Ops/s]", "mc-ref [mW]", "ulpmc-int norm",
                 "ulpmc-bank norm", "int saving %", "bank saving %"],
    )
    for workload in workloads:
        powers = {arch: cal.workload_power(arch, workload)
                  for arch in ARCHES}
        base = powers["mc-ref"]
        result.rows.append([
            round(workload, 1),
            round(base * 1e3, 4),
            round(powers["ulpmc-int"] / base, 4),
            round(powers["ulpmc-bank"] / base, 4),
            round(100 * (1 - powers["ulpmc-int"] / base), 1),
            round(100 * (1 - powers["ulpmc-bank"] / base), 1),
        ])

    top_powers = {arch: cal.workload_power(arch, top) for arch in ARCHES}
    result.comparisons.append(Comparison(
        metric="ulpmc-bank saving at the highest common workload",
        paper=39.5,
        measured=100 * (1 - top_powers["ulpmc-bank"]
                        / top_powers["mc-ref"]),
        unit="%"))
    result.comparisons.append(Comparison(
        metric="ulpmc-int saving at the highest common workload",
        paper=29.6,
        measured=100 * (1 - top_powers["ulpmc-int"]
                        / top_powers["mc-ref"]),
        unit="%"))
    low_powers = {arch: cal.workload_power(arch, 5e3) for arch in ARCHES}
    result.comparisons.append(Comparison(
        metric="ulpmc-bank saving at 5 kOps/s (leakage-dominated)",
        paper=38.8,
        measured=100 * (1 - low_powers["ulpmc-bank"]
                        / low_powers["mc-ref"]),
        unit="%"))
    result.comparisons.append(Comparison(
        metric="ulpmc-int saving at 5 kOps/s (falters: no gating)",
        paper=0.0,
        measured=100 * (1 - low_powers["ulpmc-int"]
                        / low_powers["mc-ref"]),
        unit="%",
        note="paper: 'the power consumption of the ulpmc-int becomes "
             "almost equal with the mc-ref's around 5 kOps/s'"))
    ten_m = {arch: cal.workload_power(arch, 10e6) for arch in ARCHES}
    for (workload, arch, paper_mw) in PAPER_CHECKS:
        measured = top_powers[arch] if workload > 1e8 else ten_m[arch]
        result.comparisons.append(Comparison(
            metric=f"{arch} absolute power at "
                   f"{'637 MOps/s' if workload > 1e8 else '10 MOps/s'}",
            paper=paper_mw, measured=measured * 1e3, unit="mW"))
    result.comparisons.append(Comparison(
        metric="ulpmc-bank saving at 10 MOps/s",
        paper=40.5,
        measured=100 * (1 - ten_m["ulpmc-bank"] / ten_m["mc-ref"]),
        unit="%"))
    return result
