"""Command-line driver.

Five subcommands, all but ``regress`` writing run-manifest provenance to
``runs/``:

* ``repro experiment <id ...|all> [--csv]`` — reproduce the paper's
  tables/figures (the historical ``repro-experiment`` interface; the
  subcommand word is optional, so ``repro-experiment table1`` still
  works).
* ``repro trace`` — run the ECG benchmark with the Perfetto trace
  recorder attached and write a Chrome-trace JSON per architecture
  (open it in https://ui.perfetto.dev).
* ``repro profile`` — run with the metrics collector attached, print
  the registry (sync-group-size and conflict-burst histograms included)
  and cross-check the probe counters against ``SimulationStats``.
* ``repro watch`` — stream ECG blocks through the node with the
  windowed-telemetry aggregator attached and render a live rolling
  dashboard (per-core IPC, stall/conflict/broadcast rates, lockstep
  fraction, deadline misses); ``--json-lines`` emits one JSON object
  per closed window for piping.
* ``repro regress`` — scan the run manifests for cross-revision digest
  drift (or same-revision nondeterminism) and exit non-zero on any
  finding; the CI regression gate (``--baseline DIR`` compares against
  a downloaded artifact, e.g. main's manifests, at PR time).
* ``repro farm`` — shard N independent patient runs across a process
  pool with warm per-worker caches, stream per-run + fleet manifest
  records, and print a fleet summary table (p50/p99 cycle budgets,
  deadline-miss rate, cache hit rate).
* ``repro dse`` — sweep the design space (arch x cores x IM/DM banks x
  LUT mapping x tech node x supply voltage), rank every point with the
  calibrated analytical model, escalate only the Pareto front to
  cycle-accurate simulation on the farm, and write the front artifact
  plus a ``dse`` manifest record with cache counters and fidelity.
* ``repro faults`` — run a deterministic fault-injection campaign
  (seeded bit flips into register files, data-memory banks and the
  instruction image, plus stuck/dead cores), classify every trial
  (masked / sdc / detected / hang), measure graceful degradation on
  dead-core trials, and write a ``fault`` manifest record whose digest
  reproduces across engines, worker counts and ``--resume``.

Exit codes are uniform across subcommands: 0 success, 1 a gate failed
(regression finding, failed shard, SDC rate over ``--max-sdc``), 2 a
usage or configuration error or an output path that cannot be written
(:class:`repro.errors.ReproError` and ``OSError`` render as one line on
stderr, never a traceback).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.experiments import EXPERIMENTS

_ARCH_CHOICES = ("mc-ref", "ulpmc-int", "ulpmc-bank", "all")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The engine and manifest options of every simulating subcommand."""
    parser.add_argument(
        "--exact", dest="fast_forward", action="store_false",
        help="simulate on the exact cycle loop instead of the "
             "fast-forward engine (bit-identical, slower; the oracle "
             "for cross-checks)")
    parser.add_argument("--runs-dir", metavar="DIR", default="runs",
                        help="run-manifest directory (default: runs/)")
    parser.add_argument("--no-manifest", action="store_true",
                        help="skip writing the run manifest")


def _make_output_dirs(args, *directories) -> None:
    """Create the run-manifest directory (unless ``--no-manifest``) and
    ``directories`` (``None`` skipped) before any simulation or worker
    starts, so an output location that cannot be created ends the
    command at once (exit 2) rather than after the work it would hold.
    """
    if not args.no_manifest:
        directories += (args.runs_dir,)
    for directory in directories:
        if directory is not None:
            pathlib.Path(directory).mkdir(parents=True, exist_ok=True)


def _add_pool_options(parser: argparse.ArgumentParser, job: str,
                      run: str) -> None:
    """The options of a subcommand that runs jobs on the worker pool
    (``farm``, ``faults``), plus the run options; ``job`` and ``run``
    name one unit of work and the whole invocation in the help."""
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker processes (default: 2)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help=f"requeue a crashed/failed {job} up to N "
                             "times (default: 1)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help=f"per-{job} wall-clock cap; an overrunning "
                             f"{job} has its worker killed and is requeued "
                             "with cause 'timeout'")
    parser.add_argument("--heartbeat-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill a worker whose heartbeat goes silent "
                             "this long (wedged interpreter) and requeue "
                             f"its {job} with cause 'heartbeat'")
    parser.add_argument("--checkpoint", metavar="FILE", default=None,
                        help=f"append every finished {job} to this "
                             "checkpoint JSONL (default with --resume: "
                             f"derived from the {run} under "
                             "RUNS_DIR/checkpoints/)")
    parser.add_argument("--resume", action="store_true",
                        help=f"satisfy {job}s already in the checkpoint "
                             f"without re-simulation; the {run} digest is "
                             "bit-identical to a cold run")
    parser.add_argument("--json", action="store_true",
                        help=f"emit one JSON line per finished {job} plus "
                             f"a final {run} line instead of the table")
    _add_run_options(parser)


def _run_pool(args, run, specs, kind: str, identity: dict, label, fields,
              **options):
    """Run ``specs`` through ``run`` (``run_farm``/``run_campaign``) with
    the shared pool options, reporting each job as it finishes.

    Under ``--json`` a job becomes one JSON line: ``fields(job)`` plus
    its state, attempts and retries.  Otherwise it becomes one status
    line around ``label(job)``, rewritten in place on a terminal.
    ``kind`` names the default checkpoint (from ``identity``) and
    prefixes the status lines.
    """
    from repro.farm.checkpoint import checkpoint_path
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = checkpoint_path(args.runs_dir, kind, identity)
    _make_output_dirs(
        args, None if checkpoint is None else pathlib.Path(checkpoint).parent)
    tty = sys.stdout.isatty() and not args.json

    def on_job(job, done, total):
        if args.json:
            payload = {**fields(job), "state": job.state.value,
                       "attempts": job.attempts, "resumed": job.resumed,
                       "done": done, "total": total}
            if job.retries:
                payload["retries"] = job.retry_summary()
            if job.result is not None:
                payload.update(worker_id=job.result.worker_id,
                               wall_time_s=job.result.wall_time_s)
            if job.error is not None:
                payload["error"] = job.error.strip().splitlines()[-1]
            _emit_json_line(payload)
            return
        line = (f"{kind} {done}/{total}  {label(job)}"
                + (" (resumed)" if job.resumed else "")
                + (f" ({job.attempts} attempts)"
                   if job.attempts > 1 else ""))
        if tty:
            print(f"\r\x1b[2K{line}", end="", flush=True)
        else:
            print(line, flush=True)

    result = run(specs, workers=args.workers, max_retries=args.retries,
                 job_timeout_s=args.timeout,
                 heartbeat_timeout_s=args.heartbeat_timeout,
                 checkpoint=checkpoint, resume=args.resume, on_job=on_job,
                 **options)
    if tty:
        print()
    return result


def _report_failures(jobs, name) -> None:
    """One stderr line per job that failed for good, ``name(job)`` first."""
    for job in jobs:
        error = (job.error or "").strip().splitlines()
        print(f"{name(job)} FAILED after {job.attempts} attempt(s): "
              f"{error[-1] if error else 'unknown error'}", file=sys.stderr)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", choices=_ARCH_CHOICES, default="all",
                        help="platform to run (default: all three)")
    parser.add_argument("--samples", type=int, default=512,
                        help="ECG block length (paper geometry: 512)")
    parser.add_argument("--measurements", type=int, default=256,
                        help="compressed measurements per block")
    _add_run_options(parser)


def _apply_sampling(bus, parser, pairs) -> None:
    """Install ``EVENT=N`` delivery policies on ``bus``."""
    for pair in pairs:
        event, _, every = pair.partition("=")
        try:
            rate = int(every)
        except ValueError:
            rate = 0
        if not event or rate < 1:
            parser.error(f"--sample expects EVENT=N with N >= 1, "
                         f"got {pair!r}")
        from repro.obs import ConfigurationError
        try:
            bus.set_sampling(event, rate)
        except ConfigurationError as exc:
            parser.error(str(exc))


def _arches(name: str) -> list[str]:
    from repro.platform import ARCH_NAMES
    return list(ARCH_NAMES) if name == "all" else [name]


def _emit_json_line(payload: dict) -> None:
    """One JSON object per line, flushed immediately.

    Every machine-readable stream (``watch --json-lines``, ``farm
    --json``) goes through here so piped consumers — including the
    farm's own progress readers — see each record the moment it closes,
    not whenever a 4 KiB stdio buffer happens to fill.
    """
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def _built_benchmark(args):
    from repro.kernels import BenchmarkSpec, build_benchmark
    spec = BenchmarkSpec(n_samples=args.samples,
                         n_measurements=args.measurements,
                         huffman_private=True)
    return build_benchmark(spec)


def cmd_experiment(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce tables/figures of Dogan et al., DATE 2012.")
    parser.add_argument(
        "experiments", nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'")
    parser.add_argument("--csv", action="store_true",
                        help="emit raw CSV instead of formatted text")
    parser.add_argument("--output", metavar="DIR", default=None,
                        help="also write one CSV per experiment into DIR")
    _add_run_options(parser)
    args = parser.parse_args(argv)

    requested = list(EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")

    output_dir = None if args.output is None else pathlib.Path(args.output)
    _make_output_dirs(args, output_dir)

    for name in requested:
        started = time.perf_counter()
        result = EXPERIMENTS[name].run(fast_forward=args.fast_forward)
        wall = time.perf_counter() - started
        print(result.to_csv() if args.csv else result.to_text())
        print()
        if output_dir is not None:
            path = output_dir / f"{name}.csv"
            path.write_text(result.to_csv() + "\n", encoding="utf-8")
        if not args.no_manifest:
            from repro.obs import manifest_record, write_manifest
            write_manifest(manifest_record(
                "experiment", name, payload=result.to_csv(),
                wall_time_s=wall,
                extra={"fast_forward": args.fast_forward,
                       "max_relative_error": result.max_relative_error()},
            ), directory=args.runs_dir)
    return 0


def cmd_trace(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run the ECG benchmark with the Perfetto trace "
                    "recorder attached; the JSON opens in ui.perfetto.dev.")
    _add_common(parser)
    parser.add_argument(
        "--sample", metavar="EVENT=N", action="append", default=[],
        help="record only every N-th occurrence of EVENT in the trace "
             "(repeatable; the metrics registry is unaffected)")
    parser.add_argument("--out-dir", metavar="DIR", default="runs",
                        help="directory for trace-<arch>.json "
                             "(default: runs/)")
    args = parser.parse_args(argv)

    from repro.kernels import verify_result
    from repro.obs import (ProbeMetrics, TraceRecorder, manifest_record,
                           write_manifest)
    from repro.platform import build_platform

    built = _built_benchmark(args)
    _make_output_dirs(args, args.out_dir)
    for arch in _arches(args.arch):
        started = time.perf_counter()
        system = build_platform(arch, fast_forward=args.fast_forward)
        bus = system.probe_bus()
        _apply_sampling(bus, parser, args.sample)
        recorder = TraceRecorder.attach(system)
        metrics = ProbeMetrics.attach(bus)
        result = system.run(built.benchmark)
        verify_result(built, result)
        wall = time.perf_counter() - started
        mismatches = metrics.verify_against(result.stats)
        if mismatches:
            print(f"{arch}: probe/stats mismatch: {mismatches}",
                  file=sys.stderr)
            return 1
        registry = metrics.registry
        registry.update_from_stats(result.stats)
        path = recorder.save(
            pathlib.Path(args.out_dir) / f"trace-{arch}.json")
        print(f"{arch}: {result.stats.total_cycles} cycles, "
              f"{len(recorder.slices)} slices, "
              f"{len(recorder.ff_spans)} fast-forward spans -> {path}")
        if not args.no_manifest:
            write_manifest(manifest_record(
                "trace", built.benchmark.name, arch=arch,
                config=system.config, stats=result.stats,
                event_summary=registry.snapshot(), wall_time_s=wall,
                extra={"trace_file": str(path),
                       "fast_forward": args.fast_forward,
                       "blocks": system.block_summary(),
                       "sampling": dict(
                           pair.partition("=")[::2]
                           for pair in args.sample) or None},
            ), directory=args.runs_dir)
    return 0


def cmd_profile(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run the ECG benchmark with the metrics registry "
                    "attached and print counters and histograms.")
    _add_common(parser)
    args = parser.parse_args(argv)

    from repro.kernels import verify_result
    from repro.obs import ProbeMetrics, manifest_record, write_manifest
    from repro.platform import build_platform

    built = _built_benchmark(args)
    _make_output_dirs(args)
    for arch in _arches(args.arch):
        started = time.perf_counter()
        system = build_platform(arch, fast_forward=args.fast_forward)
        metrics = ProbeMetrics.attach(system.probe_bus())
        result = system.run(built.benchmark)
        verify_result(built, result)
        wall = time.perf_counter() - started
        registry = metrics.registry
        registry.update_from_stats(result.stats)
        print(f"== {arch} ({'fast-forward' if args.fast_forward else 'exact'}"
              f", {wall:.2f} s) ==")
        print(registry.render())
        mismatches = metrics.verify_against(result.stats)
        if mismatches:
            print(f"probe/stats RECONCILIATION FAILED: {mismatches}",
                  file=sys.stderr)
            return 1
        print("probe/stats reconciliation ok")
        print()
        if not args.no_manifest:
            write_manifest(manifest_record(
                "profile", built.benchmark.name, arch=arch,
                config=system.config, stats=result.stats,
                event_summary=registry.snapshot(), wall_time_s=wall,
                extra={"fast_forward": args.fast_forward,
                       "blocks": system.block_summary()},
            ), directory=args.runs_dir)
    return 0


def _watch_dashboard(arch: str, mode: str, aggregator) -> str:
    """One repaint of the live table (plain stdlib, ANSI-free text)."""
    fleet = aggregator.fleet_summary()
    last = aggregator.windows[-1]
    lines = [
        f"repro watch — {arch} [{mode}]  "
        f"window={aggregator.window_cycles} cy  "
        f"windows={fleet['windows']}  "
        f"cycles={fleet['stream_cycles']}",
        f"{'rate':<24}{'last':>10}{'mean':>10}{'p50':>10}{'p99':>10}",
    ]
    for name, fmt in (("ipc", "{:.3f}"), ("stall_rate", "{:.3f}"),
                      ("conflicts_per_kcycle", "{:.2f}"),
                      ("broadcasts_per_kcycle", "{:.1f}"),
                      ("lockstep_fraction", "{:.1%}")):
        stats = fleet["rates"][name]
        cells = "".join(
            f"{fmt.format(stats[key]) if stats[key] is not None else '-':>10}"
            for key in ("last", "mean", "p50", "p99"))
        lines.append(f"{name:<24}{cells}")
    ipc = last.core_ipc
    lines.append("core      " + "".join(f"{pid:>7}"
                                        for pid in range(len(ipc))))
    lines.append("ipc       " + "".join(f"{value:>7.3f}" for value in ipc))
    lines.append("stalls    " + "".join(f"{value:>7}"
                                        for value in last.core_stalls))
    streaming = fleet.get("streaming")
    if streaming:
        lines.append(
            f"blocks={streaming['blocks_done']}  "
            f"deadline_misses={streaming['deadline_misses']}  "
            f"worst_block={streaming['worst_block_cycles']} cy  "
            f"budget={streaming['deadline_budget_cycles']:.0f} cy")
    return "\n".join(lines)


def cmd_watch(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description="Stream ECG blocks with the windowed-telemetry "
                    "aggregator attached and render a live rolling "
                    "dashboard of per-core/fleet rates.")
    _add_common(parser)
    parser.add_argument(
        "--window", type=int, default=None, metavar="CYCLES",
        help="telemetry window length in cycles (default: 8192)")
    parser.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="minimum wall-clock delay between dashboard repaints "
             "(default: 0.5; 0 repaints on every window)")
    parser.add_argument(
        "--json-lines", action="store_true",
        help="emit one JSON object per closed window on stdout instead "
             "of the dashboard (machine mode, pipeable)")
    parser.add_argument(
        "--repeat", type=int, default=2, metavar="N",
        help="number of consecutive ECG blocks to stream (default: 2)")
    parser.add_argument(
        "--clock-hz", type=float, default=1e6,
        help="node clock for the per-block deadline budget "
             "(default: 1e6)")
    parser.add_argument(
        "--speedup-vs-exact", action="store_true",
        help="also time an uninstrumented exact-mode run of the same "
             "stream and record the wall-time ratio in the manifest")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    from repro.kernels import BenchmarkSpec
    from repro.kernels.benchmark import build_block_series
    from repro.obs import manifest_record, write_manifest
    from repro.obs.telemetry import DEFAULT_WINDOW_CYCLES, \
        WindowedAggregator
    from repro.platform import build_platform
    from repro.platform.streaming import SAMPLE_RATE_HZ, run_stream

    window = args.window if args.window is not None \
        else DEFAULT_WINDOW_CYCLES
    spec = BenchmarkSpec(n_samples=args.samples,
                         n_measurements=args.measurements,
                         huffman_private=True)
    series = build_block_series(spec, n_blocks=args.repeat)
    _make_output_dirs(args)
    budget = args.clock_hz * (args.samples / SAMPLE_RATE_HZ)
    mode = "fast-forward" if args.fast_forward else "exact"
    tty = sys.stdout.isatty()

    for arch in _arches(args.arch):
        system = build_platform(arch, fast_forward=args.fast_forward)
        aggregator = WindowedAggregator.attach(
            system.probe_bus(), window_cycles=window,
            deadline_budget_cycles=budget)
        last_paint = [0.0]

        def on_window(summary, arch=arch, aggregator=aggregator,
                      last_paint=last_paint):
            if args.json_lines:
                payload = summary.to_dict()
                payload.update(arch=arch, ipc=summary.ipc,
                               stall_rate=summary.stall_rate,
                               lockstep_fraction=summary.lockstep_fraction)
                _emit_json_line(payload)
                return
            now = time.monotonic()
            if now - last_paint[0] < args.interval:
                return
            last_paint[0] = now
            if tty:
                print("\x1b[2J\x1b[H", end="")
            print(_watch_dashboard(arch, mode, aggregator), flush=True)
            if not tty:
                print()

        aggregator.listeners.append(on_window)
        started = time.perf_counter()
        report = run_stream(arch, series, clock_hz=args.clock_hz,
                            system=system)
        wall = time.perf_counter() - started
        aggregator.detach()
        if not args.json_lines and aggregator.windows:
            # Closing repaint so short runs show at least one table.
            if tty:
                print("\x1b[2J\x1b[H", end="")
            print(_watch_dashboard(arch, mode, aggregator))
        speedup = None
        if args.speedup_vs_exact:
            reference = build_platform(arch, fast_forward=False)
            ref_started = time.perf_counter()
            run_stream(arch, series, clock_hz=args.clock_hz,
                       system=reference)
            ref_wall = time.perf_counter() - ref_started
            speedup = ref_wall / wall if wall > 0 else None
        print(f"{arch}: {len(aggregator.windows)} windows over "
              f"{args.repeat} block(s) in {wall:.2f} s, "
              f"{report.deadline_misses} deadline miss(es)"
              + (f", {speedup:.2f}x vs exact" if speedup else ""),
              flush=True)
        if not args.no_manifest:
            write_manifest(manifest_record(
                "watch", series[0].benchmark.name, arch=arch,
                config=system.config,
                telemetry=aggregator.telemetry_block(),
                wall_time_s=wall, speedup_vs_exact=speedup,
                extra={"fast_forward": args.fast_forward,
                       "window_cycles": window,
                       "blocks": args.repeat,
                       "clock_hz": args.clock_hz,
                       "deadline_budget_cycles": budget,
                       "deadline_misses": report.deadline_misses},
            ), directory=args.runs_dir)
    return 0


def _farm_summary_table(fleet) -> str:
    """The final fleet summary table (plain text)."""
    summary = fleet.fleet_summary()
    cache = summary["shared_cache"]
    cycles = summary["cycles_per_block"]
    lines = [
        f"farm fleet — {summary['completed']}/{summary['runs']} runs ok "
        f"({summary['failed']} failed, {summary['cancelled']} cancelled, "
        f"{summary['worker_crashes']} worker crash(es)), "
        f"{summary['workers']} worker(s), {summary['wall_time_s']:.2f} s "
        f"wall"
        + (f", {summary['runs_per_s']:.2f} runs/s"
           if summary['runs_per_s'] else ""),
        f"{'arch':<11} {'runs':>5} {'blocks':>7} {'misses':>7} "
        f"{'p50 cy/blk':>11} {'p99 cy/blk':>11}",
    ]
    for arch, row in summary["per_arch"].items():
        lines.append(
            f"{arch:<11} {row['runs']:>5} {row['blocks_done']:>7} "
            f"{row['deadline_misses']:>7} {row['p50_block_cycles']:>11} "
            f"{row['p99_block_cycles']:>11}")
    lines.append(
        f"{'fleet':<11} {summary['completed']:>5} "
        f"{summary['blocks_done']:>7} {summary['deadline_misses']:>7} "
        f"{cycles['p50'] if cycles['p50'] is not None else '-':>11} "
        f"{cycles['p99'] if cycles['p99'] is not None else '-':>11}")
    if cache["hit_rate"] is not None:
        lines.append(
            f"shared caches: {cache['hits']}/{cache['lookups']} lookups "
            f"warm, {cache['source_compiles']} source compile(s) "
            f"(hit rate {cache['hit_rate']:.1%})")
    if summary["deadline_miss_rate"] is not None:
        lines.append(
            f"deadline-miss rate: {summary['deadline_miss_rate']:.2%} "
            f"({summary['deadline_misses']}/{summary['blocks_done']} "
            f"blocks)")
    if summary["worker_timeouts"] or summary["resumed_from_checkpoint"]:
        lines.append(
            f"resilience: {summary['worker_timeouts']} worker(s) killed "
            f"on timeout/heartbeat, {summary['resumed_from_checkpoint']} "
            f"shard(s) resumed from checkpoint")
    for shard, info in summary["retries"].items():
        backoffs = ", ".join(
            f"{value:g}s" for value in info["backoff_schedule_s"])
        lines.append(f"  retried {shard}: {info['attempts']} attempt(s), "
                     f"cause(s) {'/'.join(info['causes'])}, "
                     f"backoff [{backoffs}]")
    lines.append(f"fleet digest: {fleet.digest()}")
    return "\n".join(lines)


def cmd_farm(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro farm",
        description="Shard N independent patient runs (seed x arch x "
                    "window) across a worker pool with warm per-worker "
                    "caches; streams farm/fleet manifest records and "
                    "prints a fleet summary.")
    parser.add_argument("--runs", type=int, default=8, metavar="N",
                        help="number of independent patient runs "
                             "(default: 8)")
    parser.add_argument("--arch", choices=_ARCH_CHOICES, default="mc-ref",
                        help="platform(s); 'all' cycles the three "
                             "architectures across shards "
                             "(default: mc-ref)")
    parser.add_argument("--samples", type=int, default=512,
                        help="ECG block length (paper geometry: 512)")
    parser.add_argument("--measurements", type=int, default=256,
                        help="compressed measurements per block")
    parser.add_argument("--blocks", type=int, default=2, metavar="N",
                        help="ECG blocks streamed per run (default: 2)")
    parser.add_argument("--window", type=int, default=8192,
                        metavar="CYCLES",
                        help="telemetry window length (default: 8192)")
    parser.add_argument("--clock-hz", type=float, default=1e6,
                        help="node clock for deadline budgets "
                             "(default: 1e6)")
    parser.add_argument("--seed", type=int, default=None, metavar="BASE",
                        help="fleet base seed; per-shard seeds derive "
                             "deterministically from (seed, shard)")
    parser.add_argument("--no-warm", action="store_true",
                        help="cold-cache mode: workers drop every "
                             "process-level cache before each job "
                             "(measurement control arm)")
    parser.add_argument("--fail-fast", action="store_true",
                        help="cancel the remaining queue after the first "
                             "terminal job failure")
    _add_pool_options(parser, "shard", "fleet")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    from repro.farm import build_plan, run_farm
    from repro.farm.fleet import DEFAULT_BASE_SEED, plan_identity, \
        write_fleet_manifests

    base_seed = args.seed if args.seed is not None else DEFAULT_BASE_SEED
    plan = build_plan(
        args.runs, _arches(args.arch), base_seed=base_seed,
        n_samples=args.samples, n_measurements=args.measurements,
        n_blocks=args.blocks, window_cycles=args.window,
        clock_hz=args.clock_hz, fast_forward=args.fast_forward)
    fleet = _run_pool(
        args, run_farm, plan, "farm", plan_identity(plan, base_seed),
        label=lambda job: (f"shard {job.spec.shard_index:>3} "
                           f"[{job.spec.arch}] {job.state.value}"),
        fields=_shard_fields, base_seed=base_seed, warm=not args.no_warm,
        fail_fast=args.fail_fast)

    if not args.no_manifest:
        write_fleet_manifests(fleet, directory=args.runs_dir)

    if args.json:
        _emit_json_line({"type": "fleet", "digest": fleet.digest(),
                         "summary": fleet.fleet_summary(),
                         "warm_reports": fleet.warm_reports})
    else:
        print(_farm_summary_table(fleet), flush=True)
    failed = fleet.failed()
    _report_failures(failed, lambda job: f"shard {job.spec.shard_index}")
    return 1 if failed else 0


def _shard_fields(job) -> dict:
    """A fleet shard's ``--json`` progress fields."""
    fields = {"type": "job", "job_id": job.job_id,
              "shard_index": job.spec.shard_index, "arch": job.spec.arch,
              "seed": job.spec.seed}
    if job.result is not None:
        fields.update(
            stats_digest=job.result.stats_digest,
            total_cycles=job.result.stats_summary["total_cycles"],
            deadline_misses=job.result.deadline_misses)
    return fields


def _csv_values(parser, option: str, text: str, convert):
    try:
        return tuple(convert(item.strip()) for item in text.split(",")
                     if item.strip())
    except ValueError:
        parser.error(f"{option} expects a comma-separated list, "
                     f"got {text!r}")


def cmd_dse(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro dse",
        description="Sweep the design space (arch x cores x IM/DM banks "
                    "x LUT mapping x tech node x supply), rank every "
                    "point with the calibrated analytical model, "
                    "escalate the Pareto front to cycle-accurate "
                    "simulation, and write the front artifact plus a "
                    "dse manifest record.")
    parser.add_argument("--arch", choices=_ARCH_CHOICES, default="all",
                        help="architecture families to sweep "
                             "(default: all three)")
    parser.add_argument("--cores", default="1,2,4,8", metavar="LIST",
                        help="core counts (default: 1,2,4,8)")
    parser.add_argument("--im-banks", default="4,8,16", metavar="LIST",
                        help="IM bank counts for the shared-IM designs "
                             "(default: 4,8,16; mc-ref is pinned to one "
                             "bank per core)")
    parser.add_argument("--dm-banks", default="8,16,32", metavar="LIST",
                        help="DM bank counts (default: 8,16,32)")
    parser.add_argument("--mappings", default="private-lut,shared-lut",
                        metavar="LIST",
                        help="Huffman-LUT mappings (default: both)")
    parser.add_argument("--nodes", default="90", metavar="LIST",
                        help="technology nodes in nm (default: 90; "
                             "65/45/32 scale by the ITRS-style tables "
                             "and dominate the 90 nm points)")
    parser.add_argument("--voltages", default="1.2,1.0,0.8,0.65,0.5",
                        metavar="LIST",
                        help="supply voltages (default: five DVFS "
                             "points from nominal to threshold)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="farm workers for escalation (default: 1)")
    parser.add_argument("--no-escalate", action="store_true",
                        help="analytical ranking only; skip the "
                             "cycle-accurate escalation")
    parser.add_argument("--escalate-all", action="store_true",
                        help="escalate every structural family, not "
                             "just the front (fidelity measurements)")
    parser.add_argument("--max-escalations", type=int, default=None,
                        metavar="N",
                        help="escalation budget (default: 15%% of the "
                             "sweep)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="sweep-point cache directory "
                             "(default: RUNS_DIR/dse)")
    parser.add_argument("--no-cache", action="store_true",
                        help="evaluate every point from scratch and "
                             "persist nothing")
    parser.add_argument("--front-out", metavar="FILE", default=None,
                        help="Pareto-front artifact path "
                             "(default: RUNS_DIR/dse/pareto_front.json)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="front rows to print (default: 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON line per front point plus a "
                             "final summary line")
    _add_run_options(parser)
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    cores = _csv_values(parser, "--cores", args.cores, int)
    im_banks = _csv_values(parser, "--im-banks", args.im_banks, int)
    dm_banks = _csv_values(parser, "--dm-banks", args.dm_banks, int)
    mappings = _csv_values(parser, "--mappings", args.mappings, str)
    nodes = _csv_values(parser, "--nodes", args.nodes, int)
    voltages = _csv_values(parser, "--voltages", args.voltages, float)

    from repro.dse import build_space, run_dse, dse_manifest_record, \
        write_artifact
    from repro.obs.manifest import write_manifest

    points, rejected = build_space(
        arches=tuple(_arches(args.arch)), cores=cores, im_banks=im_banks,
        dm_banks=dm_banks, mappings=mappings, nodes=nodes,
        voltages=voltages)
    if not points:
        parser.error("the requested axes produced no feasible design "
                     "points")

    def log(message):
        if not args.json:
            print(message, flush=True)

    if rejected:
        log(f"{len(rejected)} infeasible axis combinations rejected "
            f"(e.g. {rejected[0]['reason']})")

    cache_dir = None if args.no_cache else (
        args.cache_dir if args.cache_dir is not None
        else pathlib.Path(args.runs_dir) / "dse")
    front_out = pathlib.Path(args.front_out) if args.front_out is not None \
        else pathlib.Path(args.runs_dir) / "dse" / "pareto_front.json"
    _make_output_dirs(args, cache_dir, front_out.parent)
    result = run_dse(
        points, cache_dir=cache_dir, escalate=not args.no_escalate,
        escalate_policy="all" if args.escalate_all else "front",
        max_escalations=args.max_escalations, workers=args.workers,
        fast_forward=args.fast_forward, log=log)

    write_artifact(result, front_out)
    if not args.no_manifest:
        write_manifest(dse_manifest_record(result),
                       directory=args.runs_dir)

    if args.json:
        for record in result.front:
            _emit_json_line({"type": "front", "point": record["point"],
                             "metrics": record["metrics"],
                             "cached": record["cached"]})
        _emit_json_line({"type": "dse", "digest": result.digest(),
                         "counters": result.counters,
                         "fidelity": result.fidelity,
                         "front_out": str(front_out)})
        return 0

    top = result.front[:max(args.top, 0)]
    print(f"\nPareto front ({len(result.front)} of "
          f"{len(result.records)} points; showing {len(top)}):")
    print(f"{'architecture':<28} {'node':>5} {'V':>5} {'nJ/sample':>10} "
          f"{'MOps/s':>8} {'mm^2':>6} {'sim':>4}")
    for record in top:
        point = record["point"]
        metrics = record["metrics"]
        label = (f"{point['arch']}/c{point['n_cores']}"
                 f"/im{point['im_banks']}/dm{point['dm_banks']}"
                 f"/{point['mapping'].removesuffix('-lut')}")
        escalated = record["structural_hash"] in result.escalations
        print(f"{label:<28} {point['tech_nm']:>4}n {point['voltage']:>5.2f} "
              f"{metrics['energy_per_sample_nj']:>10.2f} "
              f"{metrics['throughput_mops']:>8.1f} "
              f"{metrics['area_mm2']:>6.2f} "
              f"{'yes' if escalated else '-':>4}")
    counters = result.counters
    print(f"\nevaluated {counters['analytical_evaluated']} points "
          f"({counters['analytical_cache_hits']} cached), escalated "
          f"{counters['escalations_run']} "
          f"(+{counters['escalation_cache_hits']} cached) of "
          f"{counters['front_families']} frontier families "
          f"(budget {counters['escalation_budget']})")
    fidelity = result.fidelity
    if fidelity["escalated_families"]:
        rank = fidelity["rank_correlation"]
        print(f"fidelity over {fidelity['escalated_families']} "
              f"escalated families: cycle accuracy "
              f"{fidelity['cycle_accuracy']:.1%}, energy-rank "
              f"correlation "
              f"{'n/a' if rank is None else format(rank, '.3f')}")
    print(f"front artifact: {front_out}")
    return 0


def _fault_label(fault: tuple) -> str:
    """Compact one-line rendering of a trial's fault descriptors."""
    parts = []
    for entry in fault:
        bits = [entry["kind"]]
        if "core" in entry:
            bits.append(f"c{entry['core']}")
        if "bank" in entry:
            bits.append(f"b{entry['bank']}")
        if "index" in entry:
            bits.append(f"i{entry['index']}")
        if "mask" in entry:
            bits.append(f"^{entry['mask']:#06x}")
        bits.append(f"@{entry['cycle']}")
        parts.append(" ".join(bits))
    return "; ".join(parts)


def _faults_summary_table(campaign) -> str:
    from repro.resilience import OUTCOMES
    counts = campaign.outcome_counts()
    total = len(campaign.results)
    lines = [
        f"fault campaign — {total}/{len(campaign.specs)} trial(s) "
        f"classified, {campaign.workers} worker(s), "
        f"{campaign.wall_time_s:.2f} s wall"
        + (f", {campaign.resumed} resumed" if campaign.resumed else "")
        + (f", {campaign.timeouts} worker timeout(s)"
           if campaign.timeouts else "")
        + (f", {campaign.crashes} worker crash(es)"
           if campaign.crashes else ""),
        f"{'outcome':<10}{'count':>7}{'rate':>9}",
    ]
    for outcome in OUTCOMES:
        rate = counts[outcome] / total if total else 0.0
        lines.append(f"{outcome:<10}{counts[outcome]:>7}{rate:>9.1%}")
    lines.append(f"{'trial':>6} {'outcome':<9} {'cycles':>9}  fault")
    for result in campaign.results:
        cycles = result.cycles if result.cycles >= 0 else "-"
        lines.append(f"{result.trial:>6} {result.outcome:<9} "
                     f"{cycles:>9}  {_fault_label(result.fault)}")
    for report in campaign.degradations():
        lines.append(
            f"degradation: core {report['dead_core']} dead, lead "
            f"remapped to core {report['survivor']} "
            f"({'verified' if report['remap_verified'] else 'MISMATCH'}), "
            f"throughput x{report['throughput_factor']:.3f}, "
            f"{report['deadline_misses']} deadline miss(es)")
    lines.append(f"campaign digest: {campaign.digest()}")
    return "\n".join(lines)


def cmd_faults(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Run a deterministic fault-injection campaign "
                    "(seeded bit flips, stuck and dead cores) over the "
                    "farm scheduler, classify every trial (masked / sdc "
                    "/ detected / hang), measure dead-core graceful "
                    "degradation, and write a fault manifest record.")
    parser.add_argument("--trials", type=int, default=24, metavar="N",
                        help="number of fault trials (default: 24)")
    parser.add_argument("--arch", choices=_ARCH_CHOICES[:-1],
                        default="mc-ref",
                        help="platform under test (default: mc-ref)")
    parser.add_argument("--campaign-seed", type=int, default=2012,
                        metavar="SEED",
                        help="fault-plan seed; per-trial faults derive "
                             "deterministically from (seed, trial)")
    parser.add_argument("--seed", type=int, default=2012, metavar="SEED",
                        help="ECG recording seed (default: 2012)")
    parser.add_argument("--samples", type=int, default=64,
                        help="ECG block length (default: 64 — campaign "
                             "trials are many, so the geometry is small)")
    parser.add_argument("--measurements", type=int, default=32,
                        help="compressed measurements per block "
                             "(default: 32)")
    parser.add_argument("--watchdog", type=int, default=0,
                        metavar="CYCLES",
                        help="sync-watchdog window; 0 derives it from "
                             "the golden run (cycles/4, min 4096)")
    parser.add_argument("--max-cycles", type=int, default=0,
                        metavar="CYCLES",
                        help="per-trial cycle budget; 0 derives "
                             "4x the golden run")
    parser.add_argument("--clock-hz", type=float, default=1e6,
                        help="node clock for degradation deadline "
                             "budgets (default: 1e6)")
    parser.add_argument("--max-sdc", type=float, default=None,
                        metavar="RATE",
                        help="exit 1 if the silent-data-corruption rate "
                             "exceeds this fraction")
    _add_pool_options(parser, "trial", "campaign")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.max_sdc is not None and not 0.0 <= args.max_sdc <= 1.0:
        parser.error("--max-sdc expects a fraction in [0, 1]")

    from repro.resilience import (build_campaign, campaign_identity,
                                  run_campaign, write_campaign_manifest)

    specs = build_campaign(
        args.trials, args.arch, campaign_seed=args.campaign_seed,
        n_samples=args.samples, n_measurements=args.measurements,
        seed=args.seed, fast_forward=args.fast_forward,
        watchdog=args.watchdog, max_cycles=args.max_cycles,
        clock_hz=args.clock_hz)
    campaign = _run_pool(
        args, run_campaign, specs, "faults", campaign_identity(specs),
        label=lambda job: f"trial {job.spec.trial:>3} " + (
            job.result.outcome if job.result is not None
            else job.state.value),
        fields=_trial_fields)

    if not args.no_manifest:
        write_campaign_manifest(campaign, directory=args.runs_dir)

    sdc_rate = campaign.sdc_rate()
    if args.json:
        _emit_json_line({"type": "campaign", "digest": campaign.digest(),
                         "outcomes": campaign.outcome_counts(),
                         "sdc_rate": sdc_rate,
                         "trials": len(campaign.results),
                         "resumed": campaign.resumed,
                         "worker_crashes": campaign.crashes,
                         "worker_timeouts": campaign.timeouts,
                         "wall_time_s": campaign.wall_time_s})
    else:
        print(_faults_summary_table(campaign), flush=True)
    _report_failures(campaign.failed(),
                     lambda job: f"trial {job.spec.trial}")
    if not campaign.ok:
        return 1
    if args.max_sdc is not None and sdc_rate > args.max_sdc:
        print(f"SDC rate {sdc_rate:.1%} exceeds --max-sdc "
              f"{args.max_sdc:.1%}", file=sys.stderr)
        return 1
    return 0


def _trial_fields(job) -> dict:
    """A fault trial's ``--json`` progress fields."""
    fields = {"type": "trial", "trial": job.spec.trial}
    if job.result is not None:
        fields.update(outcome=job.result.outcome,
                      fault=list(job.result.fault),
                      cycles=job.result.cycles)
    return fields


def cmd_regress(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro regress",
        description="Detect cross-revision drift (or same-revision "
                    "nondeterminism) in the run manifests; exits "
                    "non-zero on any finding.")
    parser.add_argument("--runs-dir", metavar="DIR", default="runs",
                        help="run-manifest directory (default: runs/)")
    parser.add_argument("--baseline", metavar="DIR", default=None,
                        help="compare the newest record per run identity "
                             "against this manifest directory instead of "
                             "scanning one directory's history")
    parser.add_argument("--format", choices=("text", "json", "markdown"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE", default=None,
                        help="also write the report to FILE")
    from repro.obs.regress import DEFAULT_KINDS
    parser.add_argument("--kinds", default=",".join(sorted(DEFAULT_KINDS)),
                        help="comma-separated record kinds to compare "
                             f"(default: {','.join(sorted(DEFAULT_KINDS))}; "
                             "benchmark timings are never reproducible)")
    parser.add_argument("--min-groups", type=int, default=0,
                        help="fail unless at least this many run "
                             "identities had something to compare "
                             "(guards CI against scanning an empty "
                             "manifest and passing vacuously)")
    args = parser.parse_args(argv)

    from repro.errors import ConfigurationError
    from repro.obs import run_regression
    if args.output is not None:
        pathlib.Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    for label, directory in (("baseline", args.baseline),
                             ("run", args.runs_dir)):
        if directory is not None and not (
                pathlib.Path(directory) / "manifest.jsonl").is_file():
            raise ConfigurationError(
                f"{label} manifest not found: {directory}/manifest.jsonl")
    kinds = tuple(kind.strip() for kind in args.kinds.split(",")
                  if kind.strip())
    report = run_regression(args.runs_dir, baseline_dir=args.baseline,
                            kinds=kinds, min_groups=args.min_groups)
    rendered = report.render(args.format)
    print(rendered)
    if args.output is not None:
        pathlib.Path(args.output).write_text(rendered + "\n",
                                             encoding="utf-8")
    return 0 if report.ok else 1


_SUBCOMMANDS = {
    "experiment": cmd_experiment,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "watch": cmd_watch,
    "farm": cmd_farm,
    "dse": cmd_dse,
    "faults": cmd_faults,
    "regress": cmd_regress,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    from repro.errors import ReproError
    try:
        if argv and argv[0] in _SUBCOMMANDS:
            return _SUBCOMMANDS[argv[0]](argv[1:])
        # Historical interface: bare experiment ids
        # (repro-experiment table1).
        return cmd_experiment(argv)
    except (ReproError, OSError) as exc:
        # Usage/configuration errors, and output paths that cannot be
        # created or written, render as one line, never a traceback;
        # exit 2 matches argparse's own usage-error code so callers can
        # distinguish "bad invocation" (2) from "a gate failed" (1).
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
