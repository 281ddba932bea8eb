"""Differential suite: analytical ranking vs cycle-accurate truth.

Two claims make the explorer trustworthy, and both are checked against
real simulations, not against the model itself:

* **Ordering** — over a grid spanning architectures and core counts,
  the analytical energy ranking agrees with the ranking computed from
  escalated cycle-accurate runs.
* **Anchored exactness** — at the paper's own 8-core geometry the
  prediction is *exact* (delta-form counters), so escalating the seed
  design points reproduces the reference simulations bit-for-bit, and
  the pinned Table I / Table II golden numbers fall out of the
  escalated stats unchanged, digit for digit.
"""

import json
import pathlib

import pytest

from repro.dse import build_space, run_dse, seed_points
from repro.dse.escalate import stats_from_canonical
from repro.obs.manifest import _canonical
from repro.platform.config import build_config
from repro.power.area import area_report
from repro.power.calibration import calibrated_set, reference_results
from repro.power.power_model import PowerModel

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ARCHES = ("mc-ref", "ulpmc-int", "ulpmc-bank")


def _golden(exp_id: str) -> dict:
    document = json.loads(
        (FIXTURES / f"golden_{exp_id}.json").read_text(encoding="utf-8"))
    return {comparison["metric"]: comparison["measured"]
            for comparison in document["comparisons"]}


@pytest.fixture(scope="module")
def swept():
    """Every structural family escalated: 3 arches x {2, 8} cores."""
    points, rejected = build_space(
        arches=ARCHES, cores=(2, 8), im_banks=(8,), dm_banks=(16,),
        mappings=("private-lut",), voltages=(1.2,))
    assert not rejected
    result = run_dse(points, cache_dir=None, escalate_policy="all",
                     max_escalations=len(points))
    assert result.fidelity["escalated_families"] == len(points) == 6
    return result


@pytest.fixture(scope="module")
def by_family(swept):
    return {(esc["structure"]["arch"], esc["structure"]["n_cores"]): esc
            for esc in swept.escalations.values()}


def test_analytical_ordering_matches_simulated_ordering(swept):
    assert swept.fidelity["rank_correlation"] >= 0.95
    assert swept.fidelity["cycle_accuracy"] >= 0.95


def test_predictions_exact_at_the_paper_anchors(by_family):
    for arch in ARCHES:
        assert by_family[(arch, 8)]["cycle_rel_error"] == 0.0


def test_escalated_seeds_reproduce_reference_stats_bit_for_bit(by_family):
    for arch in ARCHES:
        _, reference = reference_results(arch, fast_forward=False)
        escalated = by_family[(arch, 8)]["stats"]
        assert escalated == _canonical(reference.stats)


def test_seed_points_rank_in_paper_order(swept):
    """The paper's result in miniature: the proposed interleaved design
    beats mc-ref on simulated energy at identical throughput."""
    metrics = {esc["structure"]["arch"]: esc["simulated_metrics"]
               for esc in swept.escalations.values()
               if esc["structure"]["n_cores"] == 8}
    assert metrics["ulpmc-int"]["energy_per_sample_nj"] \
        < metrics["mc-ref"]["energy_per_sample_nj"]
    assert metrics["ulpmc-bank"]["energy_per_sample_nj"] \
        < metrics["mc-ref"]["energy_per_sample_nj"]


def test_seed_geometry_is_the_reference_geometry():
    for seed in seed_points():
        assert seed.arch_config() == build_config(seed.arch)


def test_escalated_front_reproduces_golden_table1_area():
    golden = _golden("table1")
    for arch, label in (("mc-ref", "mc-ref"), ("ulpmc-int", "proposed")):
        (seed,) = [point for point in seed_points()
                   if point.arch == arch]
        report = area_report(seed.arch_config())
        for component in ("total", "cores", "im", "dm", "dxbar", "ixbar"):
            metric = f"{label} {component} area"
            if metric in golden:
                assert report[component] == golden[metric]


def test_escalated_front_reproduces_golden_table2_power(by_family):
    """Table II recomputed from the *escalated* stats, bit-for-bit."""
    golden = _golden("table2")
    cal = calibrated_set(fast_forward=False)
    stats = {arch: stats_from_canonical(by_family[(arch, 8)]["stats"])
             for arch in ARCHES}
    ops_per_block = stats["mc-ref"].total_retired
    totals = {}
    for arch in ARCHES:
        model = PowerModel(
            config=build_config(arch), stats=stats[arch],
            energies=cal.energies, leakage=cal.leakage,
            technology=cal.technology,
            post_layout_factor=cal.post_layout_factor)
        frequency = 8e6 / (ops_per_block / stats[arch].total_cycles)
        breakdown = model.dynamic_power(frequency, cal.technology.v_nom,
                                        post_layout=False)
        totals[arch] = breakdown.total
        cells = breakdown.as_dict()
        assert breakdown.total * 1e3 \
            == golden[f"{arch} total dynamic power"]
        for component in ("cores", "im", "dm", "dxbar", "ixbar", "clock"):
            metric = f"{arch} {component} power"
            if metric in golden:
                assert cells[component] * 1e3 == golden[metric]
    for arch in ("ulpmc-int", "ulpmc-bank"):
        saving = 100 * (1 - totals[arch] / totals["mc-ref"])
        assert saving == golden[f"{arch} active power saving"]
