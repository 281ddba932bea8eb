"""Gates the fault-injection campaign's outcome distribution.

Runs one fixed-seed campaign (quick geometry: 64x32, mc-ref) three
ways — fast-forward with translation blocks on 2 workers, the same
campaign on 1 worker, and the exact cycle-stepped engine — and asserts
the campaign digest and per-trial outcomes are bit-identical across
all three.  The committed baseline in
``benchmarks/baselines/BENCH_faults.json`` then pins the full
masked/SDC/detected/hang distribution and the campaign digest: a
campaign is a pure function of ``(campaign_seed, trial)``, so any
deviation is a real behaviour change in the fault model, the
classifier or the simulator — never noise.

Usable both as a pytest module and a script::

    python benchmarks/bench_faults.py --quick
    python benchmarks/bench_faults.py --quick \\
        --json BENCH_faults.json \\
        --check benchmarks/baselines/BENCH_faults.json
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

from repro.obs import git_revision
from repro.resilience import OUTCOMES, build_campaign, run_campaign

#: Record format version for the JSON documents.
SCHEMA = "bench_faults/1"

#: Default location of the committed quick-geometry baseline.
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baselines" \
    / "BENCH_faults.json"

#: Fields the baseline gate compares exactly (deterministic campaign).
CHECK_FIELDS = ("outcomes", "campaign_digest")


def _measure(specs, workers: int) -> dict:
    started = time.perf_counter()
    campaign = run_campaign(specs, workers=workers)
    wall = time.perf_counter() - started
    if not campaign.ok:
        raise AssertionError(
            f"campaign failed: {len(campaign.failed())} trial(s) did not "
            f"classify")
    return {
        "workers": workers,
        "fast_forward": specs[0].fast_forward,
        "wall_s": wall,
        "trials_per_s": len(campaign.results) / wall,
        "digest": campaign.digest(),
        "outcomes": campaign.outcome_counts(),
        "outcome_sequence": [result.outcome
                             for result in campaign.results],
    }


def run_measurements(trials: int, *, n_samples: int,
                     n_measurements: int) -> dict:
    def specs(fast_forward=True):
        return build_campaign(
            trials, "mc-ref", campaign_seed=2012, n_samples=n_samples,
            n_measurements=n_measurements, fast_forward=fast_forward)

    primary = _measure(specs(), 2)
    serial = _measure(specs(), 1)
    exact = _measure(specs(fast_forward=False), 2)

    # the whole point: injection preserves bit identity, so the
    # campaign digest must not depend on the engine or the worker count
    for label, other in (("1 worker", serial),
                         ("exact engine", exact)):
        if other["digest"] != primary["digest"]:
            raise AssertionError(
                f"{label}: campaign digest diverged from the 2-worker "
                f"fast-forward run ({other['digest'][:16]} != "
                f"{primary['digest'][:16]})")
        if other["outcome_sequence"] != primary["outcome_sequence"]:
            raise AssertionError(
                f"{label}: per-trial outcomes diverged from the "
                f"2-worker fast-forward run")

    total = sum(primary["outcomes"].values())
    return {
        "trials": trials,
        "geometry": f"{n_samples}x{n_measurements}",
        "outcomes": primary["outcomes"],
        "sdc_rate": primary["outcomes"]["sdc"] / total if total else 0.0,
        "campaign_digest": primary["digest"],
        "exact_speedup": exact["wall_s"] / primary["wall_s"]
        if primary["wall_s"] > 0 else None,
        "modes": {
            "primary": primary,
            "serial": serial,
            "exact": exact,
        },
    }


def make_record(result: dict, quick: bool) -> dict:
    record = {
        "schema": SCHEMA,
        "quick": quick,
        "git_rev": git_revision(),
    }
    record.update({key: value for key, value in result.items()
                   if key != "modes"})
    record["modes"] = {
        label: {key: value for key, value in mode.items()
                if key != "outcome_sequence"}
        for label, mode in result["modes"].items()}
    return record


def report(result: dict) -> None:
    print(f"{'mode':<10} {'workers':>7} {'engine':>14} {'wall [s]':>9} "
          f"{'trials/s':>9}")
    for label, mode in result["modes"].items():
        engine = "fast" if mode["fast_forward"] else "exact"
        print(f"{label:<10} {mode['workers']:>7} {engine:>14} "
              f"{mode['wall_s']:>9.3f} {mode['trials_per_s']:>9.2f}")
    counts = result["outcomes"]
    distribution = "  ".join(f"{outcome}={counts[outcome]}"
                             for outcome in OUTCOMES)
    print(f"{result['trials']} trial(s) @ {result['geometry']}: "
          f"{distribution}  (sdc rate {result['sdc_rate']:.1%})")
    print(f"exact-engine wall ratio {result['exact_speedup']:.2f}x; "
          f"campaign digest {result['campaign_digest'][:16]}...")


def check_against_baseline(record: dict, baseline: dict) -> list[str]:
    """Exact-match gate: the campaign is deterministic, so the
    distribution and digest must equal the committed baseline."""
    failures = []
    for field in CHECK_FIELDS:
        base = baseline.get(field)
        if base is None:
            continue
        if record[field] != base:
            failures.append(f"{field} {record[field]!r} differs from "
                            f"baseline {base!r}")
    return failures


def test_fault_campaign_determinism():
    """pytest entry: the quick corpus, full cross-engine identity."""
    result = run_measurements(12, n_samples=64, n_measurements=32)
    counts = result["outcomes"]
    assert sum(counts.values()) == 12
    assert counts["masked"] + counts["sdc"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fault-campaign outcome-distribution benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small campaign (for CI)")
    parser.add_argument("--trials", type=int, default=None, metavar="N",
                        help="campaign size (default: 12 quick, 32 full)")
    parser.add_argument("--json", type=pathlib.Path, metavar="PATH",
                        help="write the bench_faults/1 record here")
    parser.add_argument("--check", type=pathlib.Path, metavar="BASELINE",
                        nargs="?", const=BASELINE_PATH,
                        help="fail unless the outcome distribution and "
                             "campaign digest exactly match this "
                             f"baseline record (default {BASELINE_PATH})")
    args = parser.parse_args(argv)

    geometry = dict(n_samples=64, n_measurements=32)
    trials = args.trials if args.trials is not None \
        else (12 if args.quick else 32)
    result = run_measurements(trials, **geometry)
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
        if baseline.get("trials") != record["trials"]:
            print(f"FAIL: baseline ran {baseline.get('trials')} trial(s),"
                  f" this run {record['trials']} — sizes must match for "
                  f"the exact gate", file=sys.stderr)
            return 1
        failures = check_against_baseline(record, baseline)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"OK: outcome distribution and campaign digest match "
                  f"baseline {args.check}")

    print(f"OK: campaign digest bit-identical across 1/2 workers and "
          f"exact vs fast-forward engines "
          f"({result['campaign_digest'][:16]}...)")
    return status


if __name__ == "__main__":
    sys.exit(main())
