"""The four benchmark workloads and the calls that run them.

Every workload is generated from ``--seed`` and split into *rounds*,
the unit of work the harness repeats for ``--seconds`` and takes
medians over:

``lockstep``  one seed's paper-geometry runs on all three archs with
              private and shared Huffman LUTs (6 simulations).  The
              cores stay in lockstep, so loop traces and translation
              blocks carry ~90% of the cycles.
``desync``    one seed's broadcast ablations (no instruction broadcast,
              no data broadcast) on ulpmc-int and ulpmc-bank at 32x16
              (4 simulations).  The cores lose lockstep and contend for
              banks: ~95% of the cycles run in the exact cycle loop.
``fleet``     one ``run_farm`` of a 6-patient plan: worker spawn and
              warm-up, IPC, streaming verification, telemetry windows
              and the fleet merge.  The attached window aggregator
              turns loop traces off, so blocks carry the fast cycles.
``faults``    one ``run_campaign`` of 48 short fault trials on mc-ref:
              per-job fixed costs (platform build, load, golden runs,
              scheduling) dominate.

``setup`` generates the inputs and runs one cold simulation; ``round``
returns a :class:`RoundResult`; ``pin`` reduces the outputs to the entry
``expected.json`` holds.  Farm workloads also run their jobs in process
in a traced run (``trace_extras``) and report the farm and resilience
layers (``layer_metrics``).
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import traceback
from dataclasses import dataclass

from repro import farm, kernels, platform, resilience
from repro.farm.worker import clear_caches
from repro.obs import stats_digest
from repro.resilience.campaign import golden_cache_clear

#: Per-layer metrics only a farm-driven workload produces.
FARM_METRICS = (
    "farm.wall_s", "farm.job_s", "farm.warm_s", "farm.overhead_s",
    "farm.parallel_efficiency", "farm.inline_job_s_p50",
    "farm.worker_job_s_p50", "farm.cache_hit_rate", "farm.retries",
    "farm.crashes", "farm.timeouts",
)

#: Per-layer metrics only a fault campaign produces.
RESILIENCE_METRICS = (
    "resilience.trial_s_p50", "resilience.trial_s_p90", "resilience.hang_s",
) + tuple(f"resilience.{outcome}" for outcome in resilience.OUTCOMES)

#: Engine-tier counters, exact simulated-cycle splits of each run.
TIER_KEYS = ("cycles", "exact_cycles", "ff_cycles", "block_cycles",
             "trace_cycles", "fallbacks", "block_entries", "trace_entries")


def derive_seed(seed: int, index: int) -> int:
    """The ``index``-th input seed of a run seeded with ``seed``."""
    payload = f"bench-e2e:{seed}:{index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def farm_workers() -> int:
    """The benchmark is one load-generating process with <= 2 workers."""
    return min(2, usable_cpus())


def clear_all_caches() -> None:
    """Drop decode tables, block translations and golden runs."""
    clear_caches()
    golden_cache_clear()


def engine_tiers(system, stats) -> dict:
    """Split one run's simulated cycles across the engine tiers.

    ``fast_cycles`` counts every cycle the fast-forward engine
    committed, blocks and traces included; the rest ran in the exact
    loop.  A run without the engine (exact mode, or an IM fault that
    dropped it) reads as all-exact.
    """
    engine = system._ff_engine
    fast = getattr(engine, "fast_cycles", 0)
    block = getattr(engine, "block_cycles", 0)
    trace = getattr(engine, "trace_cycles", 0)
    return {
        "cycles": stats.total_cycles,
        "exact_cycles": stats.total_cycles - fast,
        "ff_cycles": fast - block - trace,
        "block_cycles": block,
        "trace_cycles": trace,
        "fallbacks": getattr(engine, "fallbacks", 0),
        "block_entries": getattr(engine, "block_entries", 0),
        "trace_entries": getattr(engine, "trace_entries", 0),
    }


@dataclass
class RoundResult:
    jobs: int              # attempted
    failed: int
    cycles: int            # simulated cycles of the completed jobs
    digests: dict          # identity-bearing outputs, keyed by job
    detail: object = None  # the FleetResult/CampaignResult, if any
    wall_s: float = 0.0    # filled in by the harness


class Workload:
    name = ""
    #: size -> parameters; "full" is the benchmark, "smoke" the self-test.
    sizes: dict = {}

    def rounds_per_pass(self, state) -> int:
        """Rounds that cover every input once (the pinned outputs)."""
        return 1

    def pin(self, digests: dict) -> dict:
        return dict(digests)

    def trace_extras(self, state, mark):
        return None

    def layer_metrics(self, traced: list[RoundResult], extras) -> dict:
        """Farm and resilience metrics; zero where the layer is unused."""
        return dict.fromkeys(FARM_METRICS + RESILIENCE_METRICS, 0)


@dataclass(frozen=True)
class SimConfig:
    arch: str
    huffman_private: bool = False
    overrides: tuple = ()  # (ArchConfig field, value) pairs

    @property
    def key(self) -> str:
        lut = "private-lut" if self.huffman_private else "shared-lut"
        return "/".join([self.arch, lut] + [f"{field}={value}" for field, value
                                            in self.overrides])


def simulate(built, config: SimConfig):
    """One verified run on the fast engine with no probe subscriber."""
    system = platform.build_platform(config.arch, fast_forward=True,
                                     **dict(config.overrides))
    system.load(built.benchmark)
    result = system.run()
    kernels.verify_result(built, result)
    return result


class SimWorkload(Workload):
    """Direct platform runs, one round per input seed."""

    def __init__(self, name: str, configs, sizes: dict):
        self.name = name
        self.configs = tuple(configs)
        self.sizes = sizes  # size -> (n_samples, n_measurements, n_seeds)

    def setup(self, seed: int, size: str):
        n_samples, n_measurements, n_seeds = self.sizes[size]
        luts = sorted({config.huffman_private for config in self.configs})
        inputs = {
            (index, private): kernels.build_benchmark(kernels.BenchmarkSpec(
                n_samples=n_samples, n_measurements=n_measurements,
                huffman_private=private, seed=derive_seed(seed, index)))
            for index in range(n_seeds) for private in luts
        }
        first = self.configs[0]
        simulate(inputs[0, first.huffman_private], first)
        return inputs, n_seeds

    def rounds_per_pass(self, state) -> int:
        return state[1]

    def round(self, state, index: int, mark) -> RoundResult:
        inputs, n_seeds = state
        seed_index = index % n_seeds
        digests, failed, cycles = {}, 0, 0
        for config in self.configs:
            key = f"seed{seed_index}/{config.key}"
            mark(key)
            try:
                result = simulate(inputs[seed_index, config.huffman_private],
                                  config)
            except Exception:  # a failing job is counted; the run goes on
                print(f"{self.name}: job {key} failed", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            cycles += result.stats.total_cycles
            digests[key] = stats_digest(result.stats)
        return RoundResult(len(self.configs), failed, cycles, digests)

    def pin(self, digests: dict) -> dict:
        return {"stats_digest_fold": stats_digest(sorted(digests.items()))}


class FarmWorkload(Workload):
    """Jobs fanned out over ``farm_workers()`` forked workers."""

    def run_inline(self, index: int, spec):
        raise NotImplementedError

    def trace_extras(self, jobs, mark) -> list[float]:
        """Run every job in process, from the cold caches the last round
        left behind; returns the per-job wall times."""
        walls = []
        for index, spec in enumerate(jobs):
            mark(f"inline{index}")
            walls.append(self.run_inline(index, spec).wall_time_s)
        return walls

    @staticmethod
    def farm_metrics(wall: float, job_walls, warm_s: float, jobs,
                     crashes: int, timeouts: int, inline,
                     cache_hit_rate: float) -> dict:
        workers = farm_workers()
        job_s = sum(job_walls)
        return {
            "farm.wall_s": wall,
            "farm.job_s": job_s,
            "farm.warm_s": warm_s,
            # worker-seconds not spent in a job or the warm-up: spawn,
            # pickling/IPC, scheduler ticks and idle tails
            "farm.overhead_s": workers * wall - job_s - warm_s,
            "farm.parallel_efficiency": job_s / (workers * wall),
            "farm.inline_job_s_p50": statistics.median(inline),
            "farm.worker_job_s_p50": statistics.median(job_walls),
            "farm.cache_hit_rate": cache_hit_rate,
            "farm.retries": sum(len(job.retries) for job in jobs),
            "farm.crashes": crashes,
            "farm.timeouts": timeouts,
        }


class FleetWorkload(FarmWorkload):
    name = "fleet"
    sizes = {
        "full": dict(runs=6, n_samples=512, n_measurements=256, n_blocks=2),
        "smoke": dict(runs=3, n_samples=64, n_measurements=32, n_blocks=1),
    }

    def plan(self, seed: int, size: str):
        return farm.build_plan(arches=platform.ARCH_NAMES, base_seed=seed,
                               window_cycles=4096, **self.sizes[size])

    def setup(self, seed: int, size: str):
        plan = self.plan(seed, size)
        farm.execute_job(0, plan[0])
        return plan

    def run_inline(self, index, spec):
        return farm.execute_job(index, spec)

    def round(self, plan, index: int, mark) -> RoundResult:
        # Workers fork from a cold parent, as under `repro farm`.
        clear_caches()
        mark(f"farm{index}")
        fleet = farm.run_farm(plan, workers=farm_workers())
        summary = fleet.fleet_summary()
        for job in fleet.failed() + fleet.cancelled():
            print(f"fleet: shard {job.spec.shard_index} {job.state.value}\n"
                  f"{job.error or ''}", file=sys.stderr)
        done = fleet.completed()
        return RoundResult(
            jobs=len(plan), failed=len(plan) - len(done),
            cycles=sum(r.stats_summary["total_cycles"] for r in done),
            digests={"fleet_digest": fleet.digest()},
            detail=(fleet, summary))

    def layer_metrics(self, traced, extras) -> dict:
        metrics = super().layer_metrics(traced, extras)
        fleet, summary = traced[-1].detail
        metrics.update(self.farm_metrics(
            fleet.wall_time_s,
            [result.wall_time_s for result in fleet.completed()],
            sum(report.get("warm_wall_s", 0.0)
                for report in fleet.warm_reports),
            fleet.jobs, fleet.crashes, fleet.timeouts, extras,
            summary["shared_cache"]["hit_rate"] or 0.0))
        return metrics


class FaultsWorkload(FarmWorkload):
    name = "faults"
    #: The fault draws stay fixed and ``--seed`` picks the ECG recording:
    #: which trials hang (each runs up to 4x a clean trial) is set by
    #: the draws, so a per-seed campaign would change the work by +-20%.
    CAMPAIGN_SEED = 2012
    sizes = {
        "full": dict(n_trials=48, n_samples=64, n_measurements=32),
        "smoke": dict(n_trials=8, n_samples=32, n_measurements=16),
    }

    def setup(self, seed: int, size: str):
        params = dict(self.sizes[size])
        specs = resilience.build_campaign(
            params.pop("n_trials"), "mc-ref",
            campaign_seed=self.CAMPAIGN_SEED, seed=derive_seed(seed, 0),
            **params)
        resilience.golden_run(specs[0])
        return specs

    def run_inline(self, index, spec):
        return resilience.execute_trial(spec)

    def round(self, specs, index: int, mark) -> RoundResult:
        # Workers compute their own golden runs, as under `repro faults`.
        clear_all_caches()
        mark(f"campaign{index}")
        campaign = resilience.run_campaign(specs, workers=farm_workers())
        digest = campaign.digest()
        classified = [result for result in campaign.results
                      if result.outcome in resilience.OUTCOMES]
        return RoundResult(
            jobs=len(specs), failed=len(specs) - len(classified),
            cycles=sum(max(result.cycles, 0) for result in classified),
            digests={"campaign_digest": digest,
                     "outcomes": campaign.outcome_counts()},
            detail=campaign)

    def layer_metrics(self, traced, extras) -> dict:
        metrics = super().layer_metrics(traced, extras)
        campaign = traced[-1].detail
        walls = [result.wall_time_s for result in campaign.results]
        # run_campaign reports no warm-ups, so they count as overhead;
        # trial results carry no cache counters.
        metrics.update(self.farm_metrics(
            campaign.wall_time_s, walls, 0.0, campaign.jobs,
            campaign.crashes, campaign.timeouts, extras, 0.0))
        metrics.update({
            "resilience.trial_s_p50": statistics.median(walls),
            "resilience.trial_s_p90": statistics.quantiles(walls, n=10)[-1],
            "resilience.hang_s": sum(result.wall_time_s
                                     for result in campaign.results
                                     if result.outcome == "hang"),
        })
        metrics.update({f"resilience.{outcome}": count for outcome, count
                        in campaign.outcome_counts().items()})
        return metrics


WORKLOADS = {
    workload.name: workload for workload in (
        SimWorkload(
            "lockstep",
            [SimConfig(arch, private) for private in (True, False)
             for arch in platform.ARCH_NAMES],
            {"full": (512, 256, 6), "smoke": (64, 32, 1)}),
        SimWorkload(
            "desync",
            [SimConfig(arch, False, ((switch, False),))
             for switch in ("instr_broadcast", "data_broadcast")
             for arch in ("ulpmc-int", "ulpmc-bank")],
            {"full": (32, 16, 6), "smoke": (32, 16, 1)}),
        FleetWorkload(),
        FaultsWorkload(),
    )
}
