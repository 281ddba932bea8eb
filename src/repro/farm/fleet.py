"""Fleet aggregation: plans, merged telemetry and manifest records.

One farm invocation evaluates a *fleet*: N patients (shards), each an
independent :class:`~repro.farm.jobs.FarmJobSpec`.  This module builds
the plans, runs them through :func:`~repro.farm.jobs.run_jobs`, and
reduces the per-run results to fleet-level numbers:

* the per-run window streams merge via
  :func:`repro.obs.telemetry.merge_window_lists` into one fleet window
  stream (per-window counters summed, core columns concatenated);
* per-block cycle counts pool into fleet p50/p99 cycle budgets and a
  deadline-miss rate — the capacity-planning numbers a monitoring
  service actually needs;
* the per-run digests fold, order-independently, into one fleet digest.

Manifest output (``repro-manifest/2``): one ``farm`` record per run and
one ``fleet`` record per invocation, both carrying ``stats_digest``
values that are pure functions of the plan — ``repro regress`` compares
farm output across revisions, worker counts and submission orders
exactly like any other run kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.farm.jobs import FarmJob, FarmJobSpec, JobState, run_jobs, \
    shard_seed
from repro.farm.worker import JobResult
from repro.obs.manifest import manifest_record, stats_digest, write_manifest
from repro.obs.telemetry import TELEMETRY_SCHEMA, merge_window_lists, \
    percentile, summaries_digest

#: Default fleet base seed (the single-run default seed, so a one-shard
#: farm reproduces familiar numbers).
DEFAULT_BASE_SEED = 2012


def build_plan(runs: int, arches, *, base_seed: int = DEFAULT_BASE_SEED,
               n_samples: int = 512, n_measurements: int = 256,
               n_blocks: int = 2, window_cycles: int = 8192,
               clock_hz: float = 1e6,
               fast_forward: bool = True) -> list[FarmJobSpec]:
    """N shard specs: shard *i* gets ``arches[i % len(arches)]`` and the
    deterministic seed :func:`~repro.farm.jobs.shard_seed`\\ ``(base_seed,
    i)`` — the plan is a pure function of its arguments."""
    if runs < 1:
        raise ConfigurationError("need at least one run")
    arches = list(arches)
    if not arches:
        raise ConfigurationError("need at least one architecture")
    return [
        FarmJobSpec(
            shard_index=index,
            seed=shard_seed(base_seed, index),
            arch=arches[index % len(arches)],
            n_samples=n_samples,
            n_measurements=n_measurements,
            n_blocks=n_blocks,
            window_cycles=window_cycles,
            clock_hz=clock_hz,
            fast_forward=fast_forward,
        )
        for index in range(runs)
    ]


def plan_identity(plan, base_seed: int) -> dict:
    """The config dict under which a fleet's digest must reproduce.

    Execution details — worker count, warm mode, retries, submission
    order — are deliberately absent: they must not change a single
    simulated bit, and keeping them out of the identity is what lets
    ``repro regress`` compare a ``--workers 4`` run against a
    ``--workers 1`` rerun.
    """
    first = plan[0]
    return {
        "runs": len(plan),
        "base_seed": base_seed,
        "arches": sorted({spec.arch for spec in plan}),
        "n_samples": first.n_samples,
        "n_measurements": first.n_measurements,
        "n_blocks": first.n_blocks,
        "window_cycles": first.window_cycles,
        "clock_hz": first.clock_hz,
        "fast_forward": first.fast_forward,
    }


def fleet_digest(results) -> str:
    """Order-independent sha256 over the per-run digests.

    Folding ``(shard_index, arch, seed, stats_digest,
    telemetry_digest)`` tuples in shard order makes the digest invariant
    under completion order and worker count but sensitive to any change
    in any run's simulated output.
    """
    rows = sorted(
        (r.shard_index, r.arch, r.seed, r.stats_digest, r.telemetry_digest)
        for r in results)
    return stats_digest([list(row) for row in rows])


@dataclass
class FleetResult:
    """Everything one farm invocation produced."""

    jobs: list[FarmJob]
    plan: list[FarmJobSpec]
    base_seed: int
    workers: int
    warm: bool
    wall_time_s: float
    warm_reports: list[dict] = field(default_factory=list)
    crashes: int = 0
    timeouts: int = 0              # workers killed (timeout/heartbeat)
    resumed: int = 0               # shards satisfied from the checkpoint

    # -- views -------------------------------------------------------------

    def completed(self):
        """Per-run results, shard order (completion order erased)."""
        results = [job.result for job in self.jobs
                   if job.state is JobState.DONE]
        return sorted(results, key=lambda r: r.shard_index)

    def failed(self) -> list[FarmJob]:
        return [job for job in self.jobs if job.state is JobState.FAILED]

    def cancelled(self) -> list[FarmJob]:
        return [job for job in self.jobs
                if job.state is JobState.CANCELLED]

    @property
    def ok(self) -> bool:
        return not self.failed() and not self.cancelled()

    def merged_windows(self):
        """The fleet window stream (see
        :func:`repro.obs.telemetry.merge_window_lists`)."""
        return merge_window_lists(
            *[result.windows for result in self.completed()])

    def digest(self) -> str:
        return fleet_digest(self.completed())

    # -- reductions --------------------------------------------------------

    def fleet_summary(self) -> dict:
        """Capacity-planning rollup across every completed run."""
        results = self.completed()
        block_cycles = [cycles for result in results
                        for cycles in result.block_cycles]
        blocks_done = sum(result.blocks_done for result in results)
        misses = sum(result.deadline_misses for result in results)
        cpu_s = sum(result.wall_time_s for result in results)
        cache: dict[str, int] = {}
        for result in results:
            for key, value in result.cache_stats.items():
                cache[key] = cache.get(key, 0) + value
        hits = cache.get("block_hits", 0) + cache.get("program_hits", 0)
        misses_cache = cache.get("block_misses", 0) \
            + cache.get("program_misses", 0)
        retried = [job for job in self.jobs if job.retries]
        summary = {
            "runs": len(self.jobs),
            "completed": len(results),
            "failed": len(self.failed()),
            "cancelled": len(self.cancelled()),
            "worker_crashes": self.crashes,
            "worker_timeouts": self.timeouts,
            "resumed_from_checkpoint": self.resumed,
            "retried_jobs": len(retried),
            "retries": {
                f"shard{job.spec.shard_index:03d}": job.retry_summary()
                for job in retried
            },
            "workers": self.workers,
            "warm": self.warm,
            "wall_time_s": self.wall_time_s,
            "runs_per_s": len(results) / self.wall_time_s
            if self.wall_time_s > 0 else None,
            "job_cpu_s": cpu_s,
            "parallel_efficiency": cpu_s / (self.wall_time_s * self.workers)
            if self.wall_time_s > 0 else None,
            "blocks_done": blocks_done,
            "deadline_misses": misses,
            "deadline_miss_rate": misses / blocks_done if blocks_done
            else None,
            "cycles_per_block": {
                "p50": percentile(block_cycles, 0.50),
                "p99": percentile(block_cycles, 0.99),
                "worst": max(block_cycles) if block_cycles else None,
                "mean": sum(block_cycles) / len(block_cycles)
                if block_cycles else None,
            },
            "shared_cache": {
                "lookups": hits + misses_cache,
                "hits": hits,
                "misses": misses_cache,
                "source_compiles": cache.get("source_compiles", 0),
                "hit_rate": hits / (hits + misses_cache)
                if hits + misses_cache else None,
            },
        }
        per_arch: dict[str, dict] = {}
        for result in results:
            row = per_arch.setdefault(result.arch, {
                "runs": 0, "blocks_done": 0, "deadline_misses": 0,
                "block_cycles": []})
            row["runs"] += 1
            row["blocks_done"] += result.blocks_done
            row["deadline_misses"] += result.deadline_misses
            row["block_cycles"].extend(result.block_cycles)
        summary["per_arch"] = {
            arch: {
                "runs": row["runs"],
                "blocks_done": row["blocks_done"],
                "deadline_misses": row["deadline_misses"],
                "p50_block_cycles": percentile(row["block_cycles"], 0.50),
                "p99_block_cycles": percentile(row["block_cycles"], 0.99),
            } for arch, row in sorted(per_arch.items())
        }
        return summary

    def telemetry_block(self) -> dict:
        """A fleet-level ``telemetry`` manifest block over the merged
        window stream."""
        merged = self.merged_windows()
        return {
            "schema": TELEMETRY_SCHEMA,
            "window_cycles": self.plan[0].window_cycles if self.plan
            else None,
            "windows": len(merged),
            "digest": summaries_digest(merged),
            "shards": len(self.completed()),
        }


def run_farm(plan, workers: int = 2, *,
             base_seed: int = DEFAULT_BASE_SEED,
             max_retries: int = 1, warm: bool = True,
             fail_fast: bool = False, on_job=None,
             job_timeout_s: float | None = None,
             heartbeat_timeout_s: float | None = None,
             checkpoint=None, resume: bool = False) -> FleetResult:
    """Execute ``plan`` on a worker pool and aggregate the fleet.

    ``on_job`` fires with ``(job, done, total)`` as each job reaches a
    terminal state (progress reporting).  The returned
    :class:`FleetResult` is independent of ``workers`` in every
    simulated bit — only the wall-clock fields differ.

    ``checkpoint`` (a path) appends every completed shard to an atomic
    checkpoint JSONL; with ``resume=True`` shards already recorded
    there are satisfied without simulation (``resumed`` jobs) and only
    the remainder is submitted — results are pure functions of their
    specs, so the fleet digest is bit-identical either way.
    """
    plan = list(plan)
    if not plan:
        raise ConfigurationError("empty farm plan")
    batch = run_jobs(plan, workers=workers, load=JobResult.from_dict,
                     checkpoint=checkpoint, resume=resume, on_job=on_job,
                     max_retries=max_retries, warm=warm,
                     fail_fast=fail_fast, job_timeout_s=job_timeout_s,
                     heartbeat_timeout_s=heartbeat_timeout_s)
    return FleetResult(
        jobs=sorted(batch.jobs, key=lambda job: job.spec.shard_index),
        plan=plan, base_seed=base_seed, workers=workers, warm=warm,
        wall_time_s=batch.wall_time_s, warm_reports=batch.warm_reports,
        crashes=batch.crashes, timeouts=batch.timeouts,
        resumed=batch.resumed)


def write_fleet_manifests(fleet: FleetResult, directory=None) -> None:
    """Append one ``farm`` record per completed run plus one ``fleet``
    record (schema ``repro-manifest/2``), all regress-comparable."""
    identity = plan_identity(fleet.plan, fleet.base_seed)
    geometry = f"{identity['n_samples']}x{identity['n_measurements']}" \
               f"x{identity['n_blocks']}-w{identity['window_cycles']}"
    benchmark = None
    by_shard = {job.spec.shard_index: job for job in fleet.jobs}
    for result in fleet.completed():
        benchmark = result.benchmark
        job = by_shard.get(result.shard_index)
        write_manifest(manifest_record(
            "farm",
            f"{result.benchmark}-{geometry}-shard{result.shard_index:03d}"
            f"-seed{result.seed:08x}",
            arch=result.arch,
            config=result.config,
            stats_digest_value=result.stats_digest,
            stats_summary=result.stats_summary,
            wall_time_s=result.wall_time_s,
            telemetry={
                "schema": TELEMETRY_SCHEMA,
                "window_cycles": identity["window_cycles"],
                "windows": len(result.windows),
                "digest": result.telemetry_digest,
            },
            extra={
                "shard_index": result.shard_index,
                "seed": result.seed,
                "worker_id": result.worker_id,
                "blocks_done": result.blocks_done,
                "deadline_misses": result.deadline_misses,
                "deadline_budget_cycles": result.deadline_budget_cycles,
                "blocks_compiled": result.blocks_compiled,
                "block_entries": result.block_entries,
                "cache_stats": result.cache_stats,
                "cache_hit_rate": result.cache_hit_rate,
                "fast_forward": identity["fast_forward"],
                "attempts": job.attempts if job is not None else None,
                "resumed": job.resumed if job is not None else False,
                "retries": job.retry_summary()["retries"]
                if job is not None and job.retries else [],
            },
        ), directory=directory)
    write_manifest(manifest_record(
        "fleet",
        f"{benchmark or 'cs-huffman-privlut'}-{geometry}"
        f"-n{identity['runs']}-seed{fleet.base_seed}",
        arch=None,
        config=identity,
        stats_digest_value=fleet.digest(),
        stats_summary=None,
        wall_time_s=fleet.wall_time_s,
        telemetry=fleet.telemetry_block(),
        extra={
            "fleet": fleet.fleet_summary(),
            "warm_reports": fleet.warm_reports,
            "failed_shards": [job.spec.shard_index
                              for job in fleet.failed()],
        },
    ), directory=directory)
