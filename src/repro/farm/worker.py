"""Farm worker runtime: warm once, then simulate jobs back to back.

A worker process amortises everything a single-run CLI invocation pays
per run:

* **Decode table** — :func:`repro.platform.program_artifacts` caches
  the decoded instruction list and compiled dispatch table per program
  image, so every job after the first reuses them.
* **Block translations** — the module-level caches in
  :mod:`repro.tamarisc.blocks` (``(pc, image_hash) -> Block`` plus the
  source-text -> code-object cache) survive across jobs; different
  patient seeds share one program image, so after the warm-up run no
  job compiles a single block.

The payoff is *measured*, not assumed: every :class:`JobResult` carries
the engine's ``block_entries``/``blocks_compiled`` counters for its own
run, and the warm-up report counts what the warm run itself had to
compile.  A warm worker executes jobs with ``blocks_compiled == 0``
(pure cache hits); ``warm=False`` clears all caches before every job,
giving the cold control arm ``benchmarks/bench_farm.py`` compares
against.

Workers never touch ``runs/`` — they ship a compact, pickle-friendly
:class:`JobResult` (digests, window dicts, counters) to the scheduler,
which is the single manifest writer.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import traceback
from dataclasses import dataclass, fields

from repro.obs.manifest import _canonical, stats_digest


@dataclass(frozen=True)
class JobResult:
    """Everything the fleet needs from one finished patient run.

    ``stats_digest`` covers the per-block ``SimulationStats`` sequence
    (the full architectural outcome); ``telemetry_digest`` covers the
    window stream.  Both are pure functions of the job spec —
    bit-identical across worker counts and scheduling orders.
    """

    job_id: int
    shard_index: int
    worker_id: int
    seed: int
    arch: str
    benchmark: str
    stats_digest: str
    telemetry_digest: str
    windows: tuple            # of WindowSummary.to_dict() dicts
    stats_summary: dict       # summed power-relevant counters
    config: dict              # canonical ArchConfig dump
    blocks_done: int
    block_cycles: tuple       # per-block total_cycles, block order
    deadline_misses: int
    deadline_budget_cycles: float
    block_cache: dict | None  # engine block_summary() of the last block
    blocks_compiled: int      # per-engine installs summed over blocks
    block_entries: int        # block-cache entries across the whole job
    cache_stats: dict         # process-cache hit/miss deltas for this job
    wall_time_s: float

    @property
    def cache_hit_rate(self) -> float | None:
        """Warm-vs-cold evidence: fraction of this job's shared-cache
        lookups (block + decode table) served without compiling."""
        hits = self.cache_stats.get("block_hits", 0) \
            + self.cache_stats.get("program_hits", 0)
        misses = self.cache_stats.get("block_misses", 0) \
            + self.cache_stats.get("program_misses", 0)
        total = hits + misses
        return hits / total if total else None

    @classmethod
    def from_dict(cls, payload: dict) -> "JobResult":
        """Rebuild from a checkpoint record (JSON turned the tuple
        fields into lists; everything identity-bearing survives the
        round trip bit-for-bit)."""
        known = {f.name for f in fields(cls)}
        data = {key: value for key, value in payload.items()
                if key in known}
        data["windows"] = tuple(data.get("windows") or ())
        data["block_cycles"] = tuple(data.get("block_cycles") or ())
        return cls(**data)


def clear_caches() -> None:
    """Drop every process-level simulation cache (cold-cache mode)."""
    from repro.platform import program_cache_clear
    from repro.tamarisc import blocks
    program_cache_clear()
    blocks.cache_clear()


def warm_worker(spec) -> dict:
    """Warm the per-process caches for ``spec``'s program geometry.

    Runs one single-block benchmark at the job geometry (the patient
    seed is irrelevant: all seeds share the program image), which
    decodes the program, compiles the dispatch table and translates
    every hot block.  Returns a report of what the warm-up itself had
    to do — under a forked pool whose parent already warmed, all
    counters come back zero, measuring the inheritance.
    """
    from repro.kernels import BenchmarkSpec, build_benchmark
    from repro.platform import build_platform, program_cache_size
    from repro.tamarisc import blocks

    started = time.perf_counter()
    built = build_benchmark(BenchmarkSpec(
        n_samples=spec.n_samples, n_measurements=spec.n_measurements,
        huffman_private=True, seed=spec.seed))
    system = build_platform(spec.arch, fast_forward=spec.fast_forward)
    system.run(built.benchmark)
    summary = system.block_summary()
    return {
        "warm_wall_s": time.perf_counter() - started,
        "arch": spec.arch,
        "blocks_compiled": summary["compiled"] if summary else 0,
        "block_cache_entries": blocks.cache_size(),
        "programs_cached": program_cache_size(),
    }


def execute_job(job_id: int, spec, worker_id: int = 0) -> JobResult:
    """Run one patient stream and reduce it to a :class:`JobResult`.

    Importable directly (no process machinery) so tests and the
    ``--workers`` path share one definition of what a job *is*.
    """
    from repro.kernels import BenchmarkSpec
    from repro.kernels.benchmark import build_block_series
    from repro.obs.telemetry import WindowedAggregator, summaries_digest
    from repro.platform import build_platform, program_cache_stats
    from repro.platform.streaming import SAMPLE_RATE_HZ, run_stream
    from repro.tamarisc import blocks

    if spec.fault == "raise":
        raise RuntimeError(f"fault injection: job {job_id} asked to fail")
    if spec.fault == "exit":
        os._exit(17)  # simulated worker crash (test hook)

    started = time.perf_counter()
    cache_before = {**blocks.cache_stats(), **program_cache_stats()}
    series = build_block_series(
        BenchmarkSpec(n_samples=spec.n_samples,
                      n_measurements=spec.n_measurements,
                      huffman_private=True, seed=spec.seed),
        n_blocks=spec.n_blocks)
    budget = spec.clock_hz * (spec.n_samples / SAMPLE_RATE_HZ)
    system = build_platform(spec.arch, fast_forward=spec.fast_forward)
    aggregator = WindowedAggregator.attach(
        system.probe_bus(), window_cycles=spec.window_cycles,
        deadline_budget_cycles=budget)

    # run_stream verifies every block against the golden model and
    # emits block.done for the aggregator's deadline accounting.
    report = run_stream(spec.arch, series, clock_hz=spec.clock_hz,
                        system=system)
    aggregator.detach()
    # Each block runs on a fresh engine, so job-level cache counters
    # are the sum over blocks: a warm worker shows compiled == 0.
    summaries = [outcome.block_summary for outcome in report.blocks
                 if outcome.block_summary is not None]
    compiled = sum(s["compiled"] for s in summaries)
    entries = sum(s["entries"] for s in summaries)
    block_stats = [outcome.stats for outcome in report.blocks]
    cache_after = {**blocks.cache_stats(), **program_cache_stats()}
    cache_delta = {key: cache_after[key] - cache_before[key]
                   for key in cache_after}

    return JobResult(
        job_id=job_id,
        shard_index=spec.shard_index,
        worker_id=worker_id,
        seed=spec.seed,
        arch=spec.arch,
        benchmark=series[0].benchmark.name,
        stats_digest=stats_digest(block_stats),
        telemetry_digest=summaries_digest(aggregator.windows),
        windows=tuple(window.to_dict()
                      for window in aggregator.windows),
        stats_summary={
            "total_cycles": sum(s.total_cycles for s in block_stats),
            "total_retired": sum(s.total_retired for s in block_stats),
            "total_stall_cycles": sum(s.total_stall_cycles
                                      for s in block_stats),
            "im_bank_accesses": sum(s.im_bank_accesses
                                    for s in block_stats),
            "dm_bank_accesses": sum(s.dm_bank_accesses
                                    for s in block_stats),
            "sync_cycles": sum(s.sync_cycles for s in block_stats),
            "worst_block_cycles": report.worst_cycles,
        },
        config=_canonical(system.config),
        blocks_done=len(report.blocks),
        block_cycles=tuple(report.cycles_per_block),
        deadline_misses=report.deadline_misses,
        deadline_budget_cycles=budget,
        block_cache=summaries[-1] if summaries else None,
        blocks_compiled=compiled,
        block_entries=entries,
        cache_stats=cache_delta,
        wall_time_s=time.perf_counter() - started,
    )


def worker_main(worker_id: int, conn, inherited, warm: bool,
                heartbeat_interval: float = 0.1) -> None:
    """Process entry point: warm, then serve jobs until the channel
    closes.

    ``conn`` is this worker's end of its channel, the duplex pipe every
    message to and from the scheduler travels on.  ``inherited`` are the
    scheduler's ends of the channels open when this worker started: a
    forked worker holds copies of them, and closes them first, so that
    only the scheduler keeps them and the scheduler's death is EOF here.

    Specs may carry their own payload: a spec with a ``run_in_worker``
    method (e.g. the design-space explorer's escalation jobs) executes
    that instead of the default patient-stream job, and a spec with
    ``farm_warm = False`` skips the ECG warm-up run — its geometry
    would not benefit from warming the default program image.

    A daemon sidecar thread sends ``("beat", None)`` on the channel
    while a job runs.  Pure-Python hangs keep beating (the GIL still
    yields), so the scheduler catches them with the job wall-clock
    timeout; a wedged interpreter (or a deliberately silenced sidecar)
    stops beating and trips the heartbeat timeout instead.  Both threads
    send under one lock, so a worker that dies mid-message breaks only
    its own channel.  A send that fails means the scheduler is gone, and
    the worker exits quietly.
    """
    for end in inherited:
        end.close()
    lock = threading.Lock()
    beating = threading.Event()

    def send(kind: str, payload=None) -> None:
        try:
            with lock:
                conn.send((kind, payload))
        except OSError:  # the scheduler is gone
            os._exit(0)

    def beat() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if beating.is_set():
                send("beat")

    threading.Thread(target=beat, daemon=True).start()
    warm_info = {"worker_id": worker_id, "warm": warm}
    jobs_seen = 0
    while True:
        try:
            job_id, spec, attempt = conn.recv()
        except (EOFError, OSError):
            return  # channel closed: shutdown, or the scheduler died
        beating.set()  # beat through warm-up too
        if jobs_seen == 0:
            if warm and getattr(spec, "farm_warm", True):
                warm_info.update(warm_worker(spec))
            send("ready", dict(warm_info))
        jobs_seen += 1
        if not warm:
            clear_caches()
        # Failure-injection test hooks, first attempt only so the
        # requeued retry completes: "hang" stalls while the sidecar
        # beats (caught by the job timeout), "wedge" mutes the sidecar
        # and stalls (caught by the heartbeat timeout), "exit-mid-send"
        # dies holding the send lock after half a message.
        fault = getattr(spec, "fault", None)
        if attempt <= 1 and fault in ("hang", "wedge"):
            if fault == "wedge":
                beating.clear()
            time.sleep(3600)
        if attempt <= 1 and fault == "exit-mid-send":
            with lock:
                # A length header promising 64 bytes, then 3 of them.
                os.write(conn.fileno(), struct.pack("!i", 64) + b"cut")
                os._exit(17)
        try:
            runner = getattr(spec, "run_in_worker", None)
            if runner is not None:
                result = runner(job_id, worker_id=worker_id)
            else:
                result = execute_job(job_id, spec, worker_id=worker_id)
        except BaseException:
            beating.clear()
            send("failed", traceback.format_exc())
            continue
        beating.clear()
        send("done", result)
