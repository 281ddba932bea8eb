"""Measures the fast-forward speedup on the 8-lead ECG compression workload.

Runs the full CS+Huffman benchmark through three execution modes on each
platform — the cycle-stepped reference loop, the per-instruction
fast-forward mode and the fast-forward mode with its translation-block
layer — verifies the outputs and every ``SimulationStats`` field are
bit-identical across all three, and reports two speedups per pair of
modes: the ratio of the interpreter opcodes one ``run()`` executes
(counted with ``tools/opcount.py``'s :func:`count_opcodes`, after a
warm-up run and an untimed ``load()``) and the ratio of best-of wall
times of ``run()`` after an untimed ``load()``.  Opcode counts repeat
exactly from run to run on one Python version, so every gate reads
count ratios; wall times are recorded, never gated (counts miss the
work done inside C calls, so a speed claim still needs wall-clock
pairs).

Two cells run the default engine against ``--exact`` in back-to-back
timed pairs (every run's output is verified and both engines must
produce one stats digest), then count one run of each.  The
``contended`` cell runs ulpmc-bank without instruction broadcast, all
eight cores waiting on one IM bank, which the default engine commits in
serialised rounds; it also reports the default engine's cost per retired
instruction and its ratio to mc-ref's exact loop, and fails below
:data:`CONTENDED_FLOOR`.  The ``desync`` cell runs ulpmc-int without
data broadcast, where the cores desynchronise and contend for banks,
and fails below :data:`DESYNC_FLOOR`.

Each run can be recorded as a ``bench_fast_forward/2`` JSON document
(``--json``), giving the repo a tracked speed trajectory: CI writes the
quick-geometry record as an artifact and compares mc-ref's count
speedups against the committed baseline in
``benchmarks/baselines/BENCH_fast_forward.json`` (``--check``), failing
on a >20% regression.  The counts differ between Python minor versions,
so the baseline names the version it was counted on.

Usable both as a pytest-benchmark module and as a script::

    python benchmarks/bench_fast_forward.py              # full workload
    python benchmarks/bench_fast_forward.py --quick      # CI smoke run
    python benchmarks/bench_fast_forward.py --quick \\
        --json runs/BENCH_fast_forward.json \\
        --check benchmarks/baselines/BENCH_fast_forward.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time
from unittest import mock

_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):  # direct script invocation
    if _path.is_dir() and str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.obs import git_revision, stats_digest
from repro.platform import ARCH_NAMES, build_platform
from repro.platform import fast_forward as ff_engine
from tools.opcount import count_opcodes

#: Record format version for the JSON trajectory documents.
SCHEMA = "bench_fast_forward/2"

#: Wall-clock speedup the per-instruction fast path must reach over the
#: cycle-stepped loop on conflict-free mc-ref (full workload only; its
#: opcode-count ratio reads 1.56x on Python 3.11).  Both paths execute
#: the same dispatch handlers, so the ratio measures only what the
#: conflict proof saves (no arbitration, no per-port staging):
#: 1.9-2.2x on the full workload (2-CPU host, Python 3.11), which leaves
#: this floor ~25% headroom for noise.
TARGET_SPEEDUP = 1.5

#: A checked run fails when a gated speedup drops below this fraction
#: of the committed baseline's speedup (>20% regression).
CHECK_FRACTION = 0.8

#: Architectures the baseline gate applies to: conflict-free mc-ref,
#: whose pair of count ratios separates the three engines.  The other
#: rows are recorded in the trajectory for inspection.
CHECK_ARCHES = ("mc-ref",)

#: The contended cell: without instruction broadcast ulpmc-bank
#: serialises all eight cores on one IM bank, so nearly every cycle has
#: seven fetches waiting on it and the default engine commits them in
#: serialised rounds.  Its wall-clock ratio to mc-ref's exact loop is
#: recorded, never gated; its count ratio against ``--exact`` is gated
#: by :data:`CONTENDED_FLOOR`.
CONTENDED = ("ulpmc-bank", {"instr_broadcast": False})

#: A run, quick or full, fails when the exact loop's opcode count on the
#: contended cell falls below this multiple of the default engine's
#: (the rounds read 3.1x at quick geometry; staging every cycle ~1x).
CONTENDED_FLOOR = 2.5

#: The desync cell: without data broadcast ulpmc-int's cores read one
#: shared word in turn, desynchronise and contend for banks, so its
#: conflict-free cycles alternate with contended ones.  Gated against
#: the exact loop (not the baseline): the default engine must not lose
#: there.
DESYNC = ("ulpmc-int", {"data_broadcast": False})

#: A run, quick or full, fails when the exact loop's opcode count on
#: the desync cell falls below this fraction of the default engine's
#: (1.13x at quick geometry: both engines run the same loop for most of
#: its cycles).
DESYNC_FLOOR = 0.9

#: Default location of the committed quick-geometry baseline.
BASELINE_PATH = pathlib.Path(__file__).resolve().parent / "baselines" \
    / "BENCH_fast_forward.json"


def _timed(factory, benchmark, reps: int):
    """Best-of-``reps`` wall time of ``run()`` after an untimed
    ``load()``; returns (seconds, system, result)."""
    best = None
    for __ in range(max(1, reps)):
        system = factory()
        system.load(benchmark)
        t0 = time.perf_counter()
        result = system.run()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, system, result)
    return best


def _counted(factory, benchmark) -> int:
    """The opcodes of one ``run()`` after an untimed ``load()``.  Call
    it after a run of the same engine, so its caches are warm."""
    system = factory()
    system.load(benchmark)
    return count_opcodes(system.run)


def _assert_stats_equal(arch: str, mode: str, ref, other) -> None:
    if ref.stats != other.stats:
        raise AssertionError(
            f"{arch}: {mode} statistics diverged from the cycle-stepped "
            "reference")


def compare_modes(arch: str, built, reps: int = 1) -> dict:
    """Run one architecture in all three modes; verify; time and count
    each."""
    benchmark = built.benchmark

    def exact_loop():
        return build_platform(arch, fast_forward=False)

    def fast():
        return build_platform(arch, fast_forward=True)

    # the exact loop dominates wall time: cap its repetitions
    exact_s, __, exact = _timed(exact_loop, benchmark, min(reps, 3))
    exact_ops = _counted(exact_loop, benchmark)
    # The per-instruction-only engine is the test-only switch's setting.
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", False):
        ff_s, __, ff = _timed(fast, benchmark, reps)
        ff_ops = _counted(fast, benchmark)
    blocks_s, blocks_system, blocks = _timed(fast, benchmark, reps)
    blocks_ops = _counted(fast, benchmark)

    for mode, result in (("fast-forward", ff), ("translation-block",
                                                blocks)):
        verify_result(built, result)
        _assert_stats_equal(arch, mode, exact, result)
    digest = stats_digest(exact.stats)
    assert digest == stats_digest(ff.stats) == stats_digest(blocks.stats)

    engine = blocks_system._ff_engine
    summary = engine.block_summary()
    return {
        "arch": arch,
        "retired": sum(core.retired for core in exact.stats.cores),
        "exact_s": exact_s,
        "ff_s": ff_s,
        "blocks_s": blocks_s,
        "exact_ops": exact_ops,
        "ff_ops": ff_ops,
        "blocks_ops": blocks_ops,
        "speedup_blocks_vs_exact": exact_ops / blocks_ops,
        "speedup_blocks_vs_ff": ff_ops / blocks_ops,
        "speedup_ff_vs_exact": exact_ops / ff_ops,
        "wall_speedup_blocks_vs_exact": exact_s / blocks_s,
        "wall_speedup_blocks_vs_ff": ff_s / blocks_s,
        "wall_speedup_ff_vs_exact": exact_s / ff_s,
        "cycles": blocks.stats.total_cycles,
        "fallbacks": engine.fallbacks,
        "block_entries": summary["entries"],
        "blocks_compiled": summary["compiled"],
        "block_hit_rate": summary["hit_rate"],
        "block_cycles": summary["block_cycles"],
        "lockstep_fraction": summary["lockstep_fraction"],
        "traces": summary["traces"],
        "trace_entries": summary["trace_entries"],
        "trace_cycles": summary["trace_cycles"],
        "stats_digest": digest,
    }


def paired_runs(built, arch: str, overrides: dict, pairs: int):
    """``pairs`` back-to-back runs of ``arch`` on the default engine and
    on ``--exact``, each timing ``run()`` alone after an untimed
    ``load()``, then one counted run of each engine.  Every timed run's
    output is verified against the golden model and both engines must
    produce one stats digest.  Returns the cell's fields (the count
    speedup, exact over default, the median per-pair wall speedup and
    each engine's fastest run) and the default engine's last result."""
    times = {True: [], False: []}
    digests = set()
    for __ in range(pairs):
        for fast_forward in (True, False):
            system = build_platform(arch, fast_forward=fast_forward,
                                    **overrides)
            system.load(built.benchmark)
            t0 = time.perf_counter()
            run = system.run()
            times[fast_forward].append(time.perf_counter() - t0)
            verify_result(built, run)
            digests.add(stats_digest(run.stats))
            if fast_forward:
                result = run
    if len(digests) != 1:
        raise AssertionError(f"{arch} {overrides}: the default engine's "
                             "statistics diverged from --exact")
    ops = {fast_forward: _counted(
        lambda: build_platform(arch, fast_forward=fast_forward,
                               **overrides), built.benchmark)
        for fast_forward in (True, False)}
    return {
        "arch": arch,
        "overrides": overrides,
        "cycles": result.stats.total_cycles,
        "stats_digest": digests.pop(),
        "default_ops": ops[True],
        "exact_ops": ops[False],
        "speedup_vs_exact": ops[False] / ops[True],
        "default_s": min(times[True]),
        "exact_s": min(times[False]),
        "pairs": pairs,
        "wall_speedup_vs_exact": statistics.median(
            exact / fast for fast, exact in zip(times[True],
                                                times[False])),
    }, result


def measure_contended(built, reps: int, mc_ref: dict) -> dict:
    """The :data:`CONTENDED` run: at least three pairs
    (:func:`paired_runs`), plus the default engine's fastest ``run()``
    per retired instruction and its ratio to the exact-loop cost per
    instruction of ``mc_ref`` (its :func:`compare_modes` row, measured
    in this process)."""
    arch, overrides = CONTENDED
    cell, result = paired_runs(built, arch, overrides, max(3, reps))
    engine = result.system._ff_engine
    retired = sum(core.retired for core in result.stats.cores)
    us_per_instr = cell["default_s"] / retired * 1e6
    mc_ref_us = mc_ref["exact_s"] / mc_ref["retired"] * 1e6
    return {
        **cell,
        "exact_cycles": cell["cycles"] - engine.fast_cycles,
        "round_cycles": engine.round_cycles,
        "retired": retired,
        "us_per_instr": us_per_instr,
        "mc_ref_exact_us_per_instr": mc_ref_us,
        "ratio_vs_mc_ref_exact": us_per_instr / mc_ref_us,
    }


def measure_desync(built, reps: int) -> dict:
    """The :data:`DESYNC` run: at least three pairs
    (:func:`paired_runs`)."""
    arch, overrides = DESYNC
    return paired_runs(built, arch, overrides, max(3, reps))[0]


def run_comparison(spec: BenchmarkSpec, reps: int = 1):
    """The per-arch rows and the contended and desync cells, on one
    input."""
    built = build_benchmark(spec)
    rows = [compare_modes(arch, built, reps) for arch in ARCH_NAMES]
    mc_ref = next(row for row in rows if row["arch"] == "mc-ref")
    return (rows, measure_contended(built, reps, mc_ref),
            measure_desync(built, reps))


def make_record(rows: list[dict], contended: dict, desync: dict,
                quick: bool) -> dict:
    return {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform.python_version(),
        "git_rev": git_revision(),
        "rows": rows,
        "contended": contended,
        "desync": desync,
    }


def report(rows: list[dict], contended: dict, desync: dict) -> None:
    print(f"Python {platform.python_version()}; speedups are opcode-count "
          "ratios, wall ratios ungated")
    print(f"{'arch':<11} {'exact [s]':>9} {'ff [s]':>8} {'blocks [s]':>10} "
          f"{'x exact':>8} {'x ff':>6} {'wall x exact':>12} "
          f"{'lockstep':>8} {'traces':>6} {'fallbacks':>9}")
    for row in rows:
        print(f"{row['arch']:<11} {row['exact_s']:>9.3f} "
              f"{row['ff_s']:>8.3f} {row['blocks_s']:>10.3f} "
              f"{row['speedup_blocks_vs_exact']:>7.2f}x "
              f"{row['speedup_blocks_vs_ff']:>5.2f}x "
              f"{row['wall_speedup_blocks_vs_exact']:>11.2f}x "
              f"{row['lockstep_fraction']:>8.2f} {row['traces']:>6} "
              f"{row['fallbacks']:>9}")
    print(f"contended: {contended['arch']} without instruction broadcast, "
          f"{contended['cycles']} cycles ({contended['exact_cycles']} "
          f"exact, {contended['round_cycles']} in rounds): "
          f"{contended['speedup_vs_exact']:.2f}x exact "
          f"(floor {CONTENDED_FLOOR:.2f}x); wall "
          f"{contended['wall_speedup_vs_exact']:.2f}x exact, median of "
          f"{contended['pairs']} pairs, "
          f"{contended['us_per_instr']:.2f} us per retired "
          f"instruction, {contended['ratio_vs_mc_ref_exact']:.2f}x "
          f"mc-ref's exact loop "
          f"({contended['mc_ref_exact_us_per_instr']:.2f} us)")
    print(f"desync: {desync['arch']} without data broadcast, "
          f"{desync['cycles']} cycles: {desync['speedup_vs_exact']:.2f}x "
          f"exact (floor {DESYNC_FLOOR:.2f}x); wall default "
          f"{desync['default_s']:.3f} s, exact {desync['exact_s']:.3f} s, "
          f"{desync['wall_speedup_vs_exact']:.2f}x exact, median of "
          f"{desync['pairs']} pairs")


def check_against_baseline(record: dict, baseline: dict) -> list[str]:
    """Speedup-trajectory gate: a count speedup of a
    :data:`CHECK_ARCHES` row more than 20% below the baseline's fails."""
    failures = []
    base_rows = {row["arch"]: row for row in baseline.get("rows", [])}
    for row in record["rows"]:
        base = base_rows.get(row["arch"])
        if base is None or row["arch"] not in CHECK_ARCHES:
            continue
        for metric in ("speedup_blocks_vs_exact", "speedup_blocks_vs_ff"):
            floor = base[metric] * CHECK_FRACTION
            if row[metric] < floor:
                failures.append(
                    f"{row['arch']}: count {metric} {row[metric]:.2f}x "
                    f"is below {CHECK_FRACTION:.0%} of baseline "
                    f"{base[metric]:.2f}x")
    return failures


def test_fast_forward_speedup(benchmark):
    """pytest-benchmark entry: times the block-enabled mode on mc-ref."""
    built = build_benchmark(BenchmarkSpec(n_samples=128, n_measurements=64,
                                          huffman_private=True))
    row = compare_modes("mc-ref", built)
    assert row["fallbacks"] == 0

    def simulate():
        result = build_platform("mc-ref", fast_forward=True) \
            .run(built.benchmark)
        verify_result(built, result)
        return result.stats

    stats = benchmark(simulate)
    assert stats.im_conflict_events == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="three-way fast-forward opcode-count and wall-clock "
                    "comparison")
    parser.add_argument("--quick", action="store_true",
                        help="small-geometry smoke run (for CI)")
    parser.add_argument("--reps", type=int, default=None,
                        help="best-of repetitions for the fast modes "
                             "(default: 5 quick, 1 full)")
    parser.add_argument("--json", type=pathlib.Path, metavar="PATH",
                        help="write the bench_fast_forward/2 record here")
    parser.add_argument("--check", type=pathlib.Path, metavar="BASELINE",
                        nargs="?", const=BASELINE_PATH,
                        help="fail if any speedup regresses >20%% vs this "
                             f"baseline record (default {BASELINE_PATH})")
    args = parser.parse_args(argv)

    if args.quick:
        spec = BenchmarkSpec(n_samples=64, n_measurements=32,
                             huffman_private=True)
    else:
        spec = BenchmarkSpec(huffman_private=True)
    reps = args.reps if args.reps is not None else (5 if args.quick else 1)
    rows, contended, desync = run_comparison(spec, reps)
    report(rows, contended, desync)
    record = make_record(rows, contended, desync, args.quick)

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
        if baseline.get("quick") != record["quick"]:
            print(f"FAIL: baseline {args.check} was recorded with "
                  f"quick={baseline.get('quick')}; this run used "
                  f"quick={record['quick']} — speedups are only "
                  "comparable at matching geometry", file=sys.stderr)
            return 1
        failures = check_against_baseline(record, baseline)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"OK: count speedups within {CHECK_FRACTION:.0%} of "
                  f"baseline {args.check} (counted on Python "
                  f"{baseline.get('python')})")

    for cell, what, floor in ((contended, "instruction", CONTENDED_FLOOR),
                              (desync, "data", DESYNC_FLOOR)):
        if cell["speedup_vs_exact"] < floor:
            print(f"FAIL: on {cell['arch']} without {what} broadcast the "
                  f"exact loop executes {cell['speedup_vs_exact']:.2f}x "
                  f"the default engine's opcodes, below the {floor}x "
                  "floor", file=sys.stderr)
            return 1
    mc_ref = next(row for row in rows if row["arch"] == "mc-ref")
    if not args.quick \
            and mc_ref["wall_speedup_ff_vs_exact"] < TARGET_SPEEDUP:
        print(f"FAIL: mc-ref fast-forward wall-clock speedup "
              f"{mc_ref['wall_speedup_ff_vs_exact']:.2f}x is below the "
              f"{TARGET_SPEEDUP}x target", file=sys.stderr)
        return 1
    print(f"OK: results bit-identical in all three modes; mc-ref blocks "
          f"execute 1/{mc_ref['speedup_blocks_vs_exact']:.2f} of the "
          f"exact loop's opcodes, 1/{mc_ref['speedup_blocks_vs_ff']:.2f} "
          "of the per-instruction engine's")
    return status


if __name__ == "__main__":
    sys.exit(main())
