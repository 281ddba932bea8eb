"""Table I — area of the architectures in kGE (1 GE = 3.136 um²)."""

from __future__ import annotations

from repro.experiments.common import Comparison, ExperimentResult
from repro.platform.config import build_config
from repro.power.area import area_report

#: Paper values, kGE.
PAPER = {
    "mc-ref": {"total": 1108.1, "cores": 81.5, "im": 429.4, "dm": 576.7,
               "dxbar": 20.5, "ixbar": 0.0},
    "ulpmc-int": {"total": 1128.8, "cores": 87.3, "im": 429.4, "dm": 576.7,
                  "dxbar": 23.0, "ixbar": 12.4},
}


def run(fast_forward: bool = True) -> ExperimentResult:
    # Area needs no simulation; the engine is accepted like every run().
    result = ExperimentResult(
        exp_id="table1",
        title="Area of the architectures (kGE)",
        headers=["component", "mc-ref paper", "mc-ref ours",
                 "proposed paper", "proposed ours"],
    )
    reports = {name: area_report(build_config(name))
               for name in ("mc-ref", "ulpmc-int")}
    for component in ("total", "cores", "im", "dm", "dxbar", "ixbar"):
        result.rows.append([
            component,
            PAPER["mc-ref"][component],
            round(reports["mc-ref"][component], 1),
            PAPER["ulpmc-int"][component],
            round(reports["ulpmc-int"][component], 1),
        ])
        for arch in ("mc-ref", "ulpmc-int"):
            label = "proposed" if arch == "ulpmc-int" else arch
            if PAPER[arch][component] == 0.0:
                continue
            result.comparisons.append(Comparison(
                metric=f"{label} {component} area",
                paper=PAPER[arch][component],
                measured=reports[arch][component],
                unit="kGE"))
    overhead = reports["ulpmc-int"]["total"] / reports["mc-ref"]["total"] - 1
    result.comparisons.append(Comparison(
        metric="total area overhead of the proposed design",
        paper=2.0, measured=100 * overhead, unit="%",
        note="paper: 'less than 2%, since the memories occupy ... almost "
             "90% of the total area'"))
    memory_share = (reports["mc-ref"]["im"] + reports["mc-ref"]["dm"]) \
        / reports["mc-ref"]["total"]
    result.comparisons.append(Comparison(
        metric="memory share of total area",
        paper=90.0, measured=100 * memory_share, unit="%"))
    result.notes.append(
        "ulpmc-int and ulpmc-bank differ only in IM bank-select bits, so "
        "their areas are identical (paper Table I lists one proposed "
        "column)")
    return result
