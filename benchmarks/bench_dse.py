"""Measures the design-space explorer's fidelity and fast-path speed.

Runs a fidelity grid — every structural family escalated, not just the
front, so the comparison covers points the analytical model would
normally never simulate — and reports:

* ``rank_correlation`` — Spearman agreement between the analytical
  energy ordering and the simulated one over all escalated families.
  This is the number that justifies ranking 100% of the sweep
  analytically and simulating only the frontier.
* ``cycle_accuracy`` — ``1 - mean relative cycle error`` of the
  analytical cycle predictions against cycle-accurate truth.  The
  model is exact at the paper's 8-core anchor geometries by
  construction (delta-form counters); the grid deliberately includes
  2-core shared-LUT points where it is genuinely an estimate.
* ``analytical_points_per_s`` — fast-path throughput (reported, not
  gated: wall-clock on shared CI runners is noise).

The grid includes the shared-LUT mapping on purpose: private-LUT
designs have no data-crossbar conflicts, so a private-only grid would
measure a trivially perfect model.

Each run can be recorded as a ``bench_dse/1`` JSON document
(``--json``); ``--check`` compares the fidelity metrics against the
committed baseline in ``benchmarks/baselines/BENCH_dse.json``, failing
on a >20% regression.  Usable both as a pytest module and a script::

    python benchmarks/bench_dse.py --quick
    python benchmarks/bench_dse.py --quick \\
        --json BENCH_dse.json --check
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:  # direct script invocation
    sys.path.insert(0, str(_SRC))

from repro.dse import build_space, run_dse, seed_points
from repro.obs import git_revision

#: Record format version for the JSON trajectory documents.
SCHEMA = "bench_dse/1"

#: A checked run fails when a gated metric drops below this fraction of
#: the committed baseline (>20% regression).
CHECK_FRACTION = 0.8

#: Metrics the baseline gate applies to.
CHECK_METRICS = ("rank_correlation", "cycle_accuracy")

#: Default location of the committed quick-geometry baseline.
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baselines" \
    / "BENCH_dse.json"

#: Engine of the anchor and escalation simulations.
FAST_FORWARD = True

#: Fidelity grids.  Both include shared-lut and 2-core points — the
#: regime where the analytical model actually has to estimate — and two
#: voltages so the structural de-duplication is exercised.
QUICK_AXES = dict(cores=(2, 8), im_banks=(4, 8), dm_banks=(8, 16),
                  mappings=("private-lut", "shared-lut"),
                  voltages=(1.2, 0.5))
FULL_AXES = dict(cores=(2, 8), im_banks=(4, 8, 16), dm_banks=(8, 16),
                 mappings=("private-lut", "shared-lut"),
                 voltages=(1.2, 1.0, 0.8, 0.65, 0.5))


def run_measurements(axes: dict) -> dict:
    points, rejected = build_space(**axes)
    if not points:
        raise AssertionError("fidelity grid produced no feasible points")

    # Warm the anchor simulations (lru_cached process-wide) so the
    # timed pass measures the analytical model, not the one-time
    # calibration.  Fast-forward is bit-identical to exact mode (a
    # tested invariant), so the engine changes nothing downstream.
    from repro.platform import ARCH_NAMES
    from repro.power.calibration import reference_results
    for arch in ARCH_NAMES:
        for private in (True, False):
            reference_results(arch, private, fast_forward=FAST_FORWARD)

    # Time the pure analytical pass separately (no cache, no farm).
    started = time.perf_counter()
    analytical = run_dse(points, cache_dir=None, escalate=False,
                         fast_forward=FAST_FORWARD)
    analytical_wall = time.perf_counter() - started

    # Escalate *every* structural family for the fidelity comparison.
    started = time.perf_counter()
    result = run_dse(points, cache_dir=None, escalate=True,
                     escalate_policy="all",
                     max_escalations=len(points),
                     fast_forward=FAST_FORWARD)
    escalated_wall = time.perf_counter() - started

    fidelity = result.fidelity
    if fidelity["escalated_families"] < 2:
        raise AssertionError(
            "fidelity grid escalated fewer than 2 families; "
            "rank correlation is undefined")
    if analytical.digest() != run_dse(
            points, cache_dir=None, escalate=False,
            fast_forward=FAST_FORWARD).digest():
        raise AssertionError("analytical sweep digest is not stable")

    front_points = {tuple(sorted(record["point"].items()))
                    for record in result.front}
    seeds_on_front = all(
        tuple(sorted(seed.payload().items())) in front_points
        for seed in seed_points())

    return {
        "points": len(points),
        "rejected": len(rejected),
        "structural_families": result.counters["structural_families"],
        "front_size": result.counters["front_size"],
        "escalated_families": fidelity["escalated_families"],
        "rank_correlation": fidelity["rank_correlation"],
        "cycle_accuracy": fidelity["cycle_accuracy"],
        "max_cycle_rel_error": fidelity["max_cycle_rel_error"],
        "seeds_on_front": seeds_on_front,
        "analytical_wall_s": analytical_wall,
        "analytical_points_per_s": len(points) / analytical_wall,
        "escalation_wall_s": escalated_wall,
        "front_digest": result.digest(),
    }


def make_record(result: dict, quick: bool) -> dict:
    record = {
        "schema": SCHEMA,
        "quick": quick,
        "git_rev": git_revision(),
    }
    record.update(result)
    return record


def report(result: dict) -> None:
    print(f"grid: {result['points']} points, "
          f"{result['structural_families']} structural families, "
          f"front {result['front_size']}, "
          f"{result['escalated_families']} families escalated")
    print(f"fidelity: rank correlation "
          f"{result['rank_correlation']:.4f}, cycle accuracy "
          f"{result['cycle_accuracy']:.2%} "
          f"(max rel error {result['max_cycle_rel_error']:.2%})")
    print(f"fast path: {result['analytical_points_per_s']:.0f} "
          f"points/s analytical "
          f"({result['analytical_wall_s']:.2f} s) vs "
          f"{result['escalation_wall_s']:.2f} s with full escalation")
    print(f"paper seed points on front: "
          f"{'yes' if result['seeds_on_front'] else 'NO'}")


def check_against_baseline(record: dict, baseline: dict) -> list[str]:
    """Fidelity gate: >20% regression per metric fails."""
    failures = []
    for metric in CHECK_METRICS:
        base = baseline.get(metric)
        if base is None:
            continue
        floor = base * CHECK_FRACTION
        if record[metric] is None or record[metric] < floor:
            failures.append(
                f"{metric} {record[metric]} is below "
                f"{CHECK_FRACTION:.0%} of baseline {base:.3f}")
    return failures


def test_dse_fidelity():
    """pytest entry: the quick grid keeps its ranking fidelity."""
    result = run_measurements(QUICK_AXES)
    assert result["seeds_on_front"]
    assert result["rank_correlation"] >= 0.8
    assert result["cycle_accuracy"] >= 0.9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="design-space explorer fidelity benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small fidelity grid (for CI)")
    parser.add_argument("--json", type=pathlib.Path, metavar="PATH",
                        help="write the bench_dse/1 record here")
    parser.add_argument("--check", type=pathlib.Path, metavar="BASELINE",
                        nargs="?", const=BASELINE_PATH,
                        help="fail if ranking fidelity regresses >20%% "
                             f"vs this baseline (default {BASELINE_PATH})")
    args = parser.parse_args(argv)

    result = run_measurements(QUICK_AXES if args.quick else FULL_AXES)
    report(result)
    record = make_record(result, args.quick)

    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        with args.json.open("w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")

    status = 0
    if args.check:
        with args.check.open(encoding="utf-8") as handle:
            baseline = json.load(handle)
        if baseline.get("schema") != SCHEMA:
            print(f"FAIL: baseline {args.check} has schema "
                  f"{baseline.get('schema')!r}, expected {SCHEMA!r}",
                  file=sys.stderr)
            return 1
        failures = check_against_baseline(record, baseline)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"OK: ranking fidelity within {CHECK_FRACTION:.0%} of "
                  f"baseline {args.check}")

    if not result["seeds_on_front"]:
        print("FAIL: the paper's evaluated design points fell off the "
              "Pareto front", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
