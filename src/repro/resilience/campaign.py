"""Fault-injection campaigns: trials, classification, degradation.

A campaign is ``n_trials`` independent simulations of the ECG
benchmark, each perturbed by one deterministically drawn fault
(:mod:`repro.resilience.faults`) and classified against the golden
(fault-free) run:

``masked``
    The compressed output digest equals the golden digest — the flip
    landed in dead state or was overwritten before use.
``sdc``
    Silent data corruption: the run completed but the compressed ECG
    stream diverges from golden.
``detected``
    The platform trapped — undecodable instruction (decode trap), a PC
    off the program image, or an illegal address at the MMU.
``hang``
    The sync watchdog tripped (no core retired within the window) or
    the cycle budget ran out.

Dead-core trials additionally measure **graceful degradation**: the
dead core's lead is remapped to a survivor, which processes both leads
sequentially; the report carries the throughput factor and the
deadline verdict from the existing
:class:`~repro.obs.telemetry.WindowedAggregator` machinery.

Campaign identity deliberately excludes the execution engine
(``fast_forward``) and every scheduling knob, so
``repro regress`` cross-checks the campaign digest across engines,
worker counts and cold/resumed executions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, fields
from typing import ClassVar

from repro.errors import (ConfigurationError, CycleLimitError, HangError,
                          SimulationError, TrapError)
from repro.farm.jobs import FarmJob, JobState, run_jobs
from repro.obs.manifest import _digest, manifest_record, write_manifest
from repro.resilience.faults import (FaultSession, FaultSpec, draw_fault,
                                     trial_seed)

#: Outcome taxonomy, display order.
OUTCOMES = ("masked", "sdc", "detected", "hang")


@dataclass(frozen=True)
class FaultTrialSpec:
    """One trial's identity: campaign coordinates plus the engine.

    Farm-dispatchable (duck-typed ``run_in_worker``); results are pure
    functions of the spec, which is what makes checkpoints resumable
    and digests engine/worker-count invariant.
    """

    trial: int
    campaign_seed: int
    arch: str
    n_samples: int = 64
    n_measurements: int = 32
    seed: int = 2012           # ECG recording seed
    fast_forward: bool = True
    watchdog: int = 0          # 0 -> golden_cycles // 4 (min 4096)
    max_cycles: int = 0        # 0 -> 4 * golden_cycles
    clock_hz: float = 1e6

    farm_warm: ClassVar[bool] = True

    def __post_init__(self):
        # Checked here, before any worker starts: a bad size would fail
        # every trial, and a negative budget would classify it "hang".
        for name, minimum in (("n_samples", 1), ("n_measurements", 1),
                              ("watchdog", 0), ("max_cycles", 0)):
            value = getattr(self, name)
            if value < minimum:
                raise ConfigurationError(
                    f"{name} must be >= {minimum}, got {value}")
        if not self.clock_hz > 0:
            raise ConfigurationError(
                f"clock_hz must be > 0, got {self.clock_hz}")

    def run_in_worker(self, job_id: int, worker_id: int = 0):
        return execute_trial(self, worker_id=worker_id)


@dataclass(frozen=True)
class FaultTrialResult:
    """Outcome of one trial (pickle/JSON friendly)."""

    trial: int
    outcome: str               # one of OUTCOMES
    fault: tuple               # FaultSpec.describe() dicts
    cycles: int                # total cycles on completion, else -1
    output_digest: str         # compressed-output digest ("" on abort)
    golden_digest: str
    degradation: dict | None   # dead-core remap report
    detail: str                # classifier detail (error message)
    worker_id: int
    wall_time_s: float

    def identity_row(self) -> tuple:
        """The digest-bearing projection: everything simulated, nothing
        about scheduling (worker, wall time) or message wording."""
        return (self.trial, self.outcome, self.fault, self.cycles,
                self.output_digest, self.golden_digest, self.degradation)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultTrialResult":
        known = {f.name for f in fields(cls)}
        data = {key: value for key, value in payload.items()
                if key in known}
        data["fault"] = tuple(data.get("fault") or ())
        return cls(**data)


# -- golden runs (per-process cache) ------------------------------------------

@dataclass
class GoldenRun:
    """Fault-free reference for one (arch, geometry, seed, engine)."""

    built: object              # BuiltBenchmark
    cycles: int
    outputs: tuple
    output_digest: str
    machine: dict              # drawing parameters for the fault model


_GOLDEN_CACHE: dict[tuple, GoldenRun] = {}


def _golden_key(spec: FaultTrialSpec) -> tuple:
    return (spec.arch, spec.n_samples, spec.n_measurements, spec.seed,
            spec.fast_forward)


def read_outputs(system, built) -> tuple:
    """The per-core compressed outputs, read exactly as
    :func:`repro.kernels.benchmark.verify_result` reads them."""
    memmap = built.memmap
    rows = []
    for core, golden in enumerate(built.golden):
        y = system.read_logical_block(core, memmap.y_base,
                                      memmap.n_measurements)
        bits = system.read_logical(core, memmap.out_base)
        stream = system.read_logical_block(core, memmap.out_base + 1,
                                           len(golden.bitstream))
        rows.append((tuple(y), bits, tuple(stream)))
    return tuple(rows)


def golden_run(spec: FaultTrialSpec) -> GoldenRun:
    """The cached fault-free reference run for ``spec``'s coordinates."""
    from repro.kernels import BenchmarkSpec, build_benchmark
    from repro.platform import build_platform

    key = _golden_key(spec)
    cached = _GOLDEN_CACHE.get(key)
    if cached is not None:
        return cached
    built = build_benchmark(BenchmarkSpec(
        n_samples=spec.n_samples, n_measurements=spec.n_measurements,
        huffman_private=True, seed=spec.seed))
    system = build_platform(spec.arch, fast_forward=spec.fast_forward)
    result = system.run(built.benchmark)
    outputs = read_outputs(system, built)
    golden = GoldenRun(
        built=built,
        cycles=result.stats.total_cycles,
        outputs=outputs,
        output_digest=_digest(outputs),
        machine={
            "n_cores": system.config.n_cores,
            "dm_banks": system.config.dm_banks,
            "dm_bank_words": system.config.dm_bank_words,
            "program_len": len(built.benchmark.program),
        },
    )
    _GOLDEN_CACHE[key] = golden
    return golden


def golden_cache_clear() -> None:
    _GOLDEN_CACHE.clear()


# -- trial execution ----------------------------------------------------------

def _trial_faults(spec: FaultTrialSpec, golden: GoldenRun) \
        -> tuple[FaultSpec, ...]:
    rng = random.Random(trial_seed(spec.campaign_seed, spec.trial))
    machine = golden.machine
    return (draw_fault(
        rng, n_cores=machine["n_cores"], dm_banks=machine["dm_banks"],
        dm_bank_words=machine["dm_bank_words"],
        program_len=machine["program_len"],
        max_cycle=golden.cycles),)


def execute_trial(spec: FaultTrialSpec, worker_id: int = 0,
                  fault_specs=None) -> FaultTrialResult:
    """Run one fault trial and classify it.

    ``fault_specs`` overrides the drawn fault (targeted unit tests);
    campaign runs leave it ``None`` so the plan is a pure function of
    ``(campaign_seed, trial)``.
    """
    from repro.platform import build_platform

    started = time.perf_counter()
    golden = golden_run(spec)
    if fault_specs is None:
        fault_specs = _trial_faults(spec, golden)
    max_cycles = spec.max_cycles or 4 * golden.cycles
    watchdog = spec.watchdog or max(4096, golden.cycles // 4)
    session = FaultSession(fault_specs, watchdog_window=watchdog)
    system = build_platform(spec.arch, fast_forward=spec.fast_forward)
    cycles = -1
    output_digest = ""
    detail = ""
    try:
        result = system.run(golden.built.benchmark, max_cycles=max_cycles,
                            faults=session)
    except HangError as exc:
        outcome, detail = "hang", str(exc)
    except CycleLimitError as exc:
        outcome, detail = "hang", str(exc)
    except TrapError as exc:
        outcome, detail = "detected", str(exc)
    except SimulationError as exc:
        outcome, detail = "detected", str(exc)
    else:
        cycles = result.stats.total_cycles
        outputs = read_outputs(system, golden.built)
        output_digest = _digest(outputs)
        outcome = "masked" if output_digest == golden.output_digest \
            else "sdc"

    degradation = None
    dead = [s for s in fault_specs if s.kind == "dead"]
    if dead and outcome == "sdc":
        degradation = measure_degradation(spec, golden, dead[0].core)

    return FaultTrialResult(
        trial=spec.trial,
        outcome=outcome,
        fault=tuple(s.describe() for s in fault_specs),
        cycles=cycles,
        output_digest=output_digest,
        golden_digest=golden.output_digest,
        degradation=degradation,
        detail=detail,
        worker_id=worker_id,
        wall_time_s=time.perf_counter() - started,
    )


class _BlockCost:
    """Minimal ``stats``-shaped shim for a synthetic ``block.done``."""

    __slots__ = ("total_cycles",)

    def __init__(self, total_cycles):
        self.total_cycles = total_cycles


def measure_degradation(spec: FaultTrialSpec, golden: GoldenRun,
                        dead_core: int) -> dict:
    """Graceful degradation after losing ``dead_core``.

    Lead-remapping policy: the dead core's ECG lead is reassigned to
    the next surviving core, which processes both leads sequentially —
    pass 1 runs the normal block with the core dead from cycle 0
    (survivors compute their own leads), pass 2 re-runs with the dead
    lead's samples in the survivor's input buffer.  The block therefore
    costs ``c1 + c2`` cycles instead of the healthy ``golden.cycles``;
    the deadline verdict comes from a
    :class:`~repro.obs.telemetry.WindowedAggregator` fed the combined
    block cost against the real-time budget.
    """
    from repro.obs.telemetry import WindowedAggregator
    from repro.platform import build_platform
    from repro.platform.streaming import SAMPLE_RATE_HZ
    from repro.platform.multicore import Benchmark
    from repro.tamarisc.program import DataImage

    built = golden.built
    n_leads = len(built.golden)
    if n_leads < 2:
        raise ConfigurationError("lead remapping needs a survivor core")
    survivor = (dead_core + 1) % n_leads
    memmap = built.memmap
    budget = spec.clock_hz * (spec.n_samples / SAMPLE_RATE_HZ)

    system = build_platform(spec.arch, fast_forward=spec.fast_forward)
    aggregator = WindowedAggregator.attach(
        system.probe_bus(), window_cycles=8192,
        deadline_budget_cycles=budget)
    try:
        # Pass 1: the fleet minus the dead core, own leads.
        session = FaultSession([FaultSpec("dead", 0, dead_core)],
                               watchdog_window=0)
        c1 = system.run(built.benchmark, faults=session) \
            .stats.total_cycles

        # Pass 2: the survivor re-runs with the dead core's lead.
        src = built.benchmark.data
        data = DataImage(
            shared=dict(src.shared),
            private={core: dict(image)
                     for core, image in src.private.items()})
        data.private[survivor] = {
            addr: value for addr, value in src.private[survivor].items()
            if not (memmap.x_base <= addr
                    < memmap.x_base + spec.n_samples)}
        data.set_private_block(survivor, memmap.x_base,
                               built.golden[dead_core].samples)
        remapped = Benchmark(
            name=f"{built.benchmark.name}-remap{dead_core}to{survivor}",
            program=built.benchmark.program,
            data=data,
            meta=dict(built.benchmark.meta, remap=(dead_core, survivor)))
        session = FaultSession([FaultSpec("dead", 0, dead_core)],
                               watchdog_window=0)
        c2 = system.run(remapped, faults=session).stats.total_cycles

        # The remapped lead must come out bit-identical to the lead the
        # dead core would have produced.
        lead = built.golden[dead_core]
        y = system.read_logical_block(survivor, memmap.y_base,
                                      memmap.n_measurements)
        bits = system.read_logical(survivor, memmap.out_base)
        stream = system.read_logical_block(survivor, memmap.out_base + 1,
                                           len(lead.bitstream))
        remap_verified = (y == lead.measurements
                          and bits == lead.total_bits
                          and stream == lead.bitstream)

        # One degraded block costs both passes; the aggregator applies
        # the same deadline accounting streaming runs use.
        system.probe_bus().emit("block.done", 0, _BlockCost(c1 + c2))
        deadline_misses = aggregator.deadline_misses
    finally:
        aggregator.detach()

    degraded = c1 + c2
    return {
        "dead_core": dead_core,
        "survivor": survivor,
        "healthy_cycles": golden.cycles,
        "pass_cycles": (c1, c2),
        "degraded_cycles": degraded,
        "throughput_factor": golden.cycles / degraded if degraded else None,
        "deadline_budget_cycles": budget,
        "deadline_misses": deadline_misses,
        "deadline_miss": degraded > budget,
        "remap_verified": remap_verified,
    }


# -- campaign orchestration ---------------------------------------------------

def build_campaign(n_trials: int, arch: str, *, campaign_seed: int = 2012,
                   n_samples: int = 64, n_measurements: int = 32,
                   seed: int = 2012, fast_forward: bool = True,
                   watchdog: int = 0, max_cycles: int = 0,
                   clock_hz: float = 1e6) -> list[FaultTrialSpec]:
    """The campaign plan: one :class:`FaultTrialSpec` per trial."""
    if n_trials < 1:
        raise ConfigurationError("need at least one trial")
    return [FaultTrialSpec(
        trial=trial, campaign_seed=campaign_seed, arch=arch,
        n_samples=n_samples, n_measurements=n_measurements, seed=seed,
        fast_forward=fast_forward, watchdog=watchdog,
        max_cycles=max_cycles, clock_hz=clock_hz)
        for trial in range(n_trials)]


def campaign_identity(specs) -> dict:
    """The config dict under which a campaign digest must reproduce.

    The engine (``fast_forward``) is excluded on purpose: injection
    preserves bit identity, so ``repro regress`` enforces digest
    equality *across* engines, exactly like worker count and resume
    state.
    """
    first = specs[0]
    return {
        "campaign_seed": first.campaign_seed,
        "trials": len(specs),
        "arch": first.arch,
        "n_samples": first.n_samples,
        "n_measurements": first.n_measurements,
        "seed": first.seed,
        "watchdog": first.watchdog,
        "max_cycles": first.max_cycles,
        "clock_hz": first.clock_hz,
    }


def campaign_digest(results) -> str:
    """Order-independent sha256 over the per-trial identity rows."""
    rows = sorted(result.identity_row() for result in results)
    return _digest([list(row) for row in rows])


@dataclass
class CampaignResult:
    """Everything one campaign invocation produced."""

    results: list[FaultTrialResult]   # trial order
    jobs: list[FarmJob]
    specs: list[FaultTrialSpec]
    workers: int
    wall_time_s: float
    crashes: int = 0
    timeouts: int = 0
    resumed: int = 0

    def failed(self) -> list[FarmJob]:
        return [job for job in self.jobs
                if job.state is JobState.FAILED]

    @property
    def ok(self) -> bool:
        return len(self.results) == len(self.specs)

    def outcome_counts(self) -> dict:
        counts = {outcome: 0 for outcome in OUTCOMES}
        for result in self.results:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    def sdc_rate(self) -> float:
        return self.outcome_counts()["sdc"] / len(self.results) \
            if self.results else 0.0

    def digest(self) -> str:
        return campaign_digest(self.results)

    def degradations(self) -> list[dict]:
        return [result.degradation for result in self.results
                if result.degradation is not None]


def run_campaign(specs, workers: int = 2, *, max_retries: int = 1,
                 warm: bool = True, on_job=None,
                 job_timeout_s: float | None = None,
                 heartbeat_timeout_s: float | None = None,
                 checkpoint=None, resume: bool = False) -> CampaignResult:
    """Fan a campaign out over the farm scheduler.

    Same resilience contract as :func:`repro.farm.fleet.run_farm`:
    per-job wall-clock timeouts, heartbeat supervision, bounded retries
    with backoff, and checkpoint/resume with zero recomputation.
    """
    specs = list(specs)
    if not specs:
        raise ConfigurationError("empty campaign")
    batch = run_jobs(specs, workers=workers, load=FaultTrialResult.from_dict,
                     checkpoint=checkpoint, resume=resume, on_job=on_job,
                     max_retries=max_retries, warm=warm,
                     job_timeout_s=job_timeout_s,
                     heartbeat_timeout_s=heartbeat_timeout_s)
    jobs = sorted(batch.jobs, key=lambda job: job.spec.trial)
    return CampaignResult(
        results=[job.result for job in jobs if job.state is JobState.DONE],
        jobs=jobs, specs=specs, workers=workers,
        wall_time_s=batch.wall_time_s, crashes=batch.crashes,
        timeouts=batch.timeouts, resumed=batch.resumed)


def write_campaign_manifest(campaign: CampaignResult,
                            directory=None) -> None:
    """One ``fault`` manifest record per campaign (schema v2).

    The record's digest is the campaign digest; its identity excludes
    the engine and every scheduling knob, so regress compares campaigns
    across engines/workers/resume exactly like farm fleets.
    """
    identity = campaign_identity(campaign.specs)
    counts = campaign.outcome_counts()
    retried = [job for job in campaign.jobs if job.retries]
    degradations = campaign.degradations()
    write_manifest(manifest_record(
        "fault",
        f"faults-{identity['arch']}-{identity['n_samples']}x"
        f"{identity['n_measurements']}-n{identity['trials']}"
        f"-seed{identity['campaign_seed']}",
        arch=identity["arch"],
        config=identity,
        stats_digest_value=campaign.digest(),
        stats_summary=counts,
        wall_time_s=campaign.wall_time_s,
        extra={
            "outcomes": counts,
            "sdc_rate": campaign.sdc_rate(),
            "trials": [
                {"trial": result.trial, "outcome": result.outcome,
                 "fault": list(result.fault), "cycles": result.cycles}
                for result in campaign.results
            ],
            "degradation": {
                "measured": len(degradations),
                "worst_throughput_factor": min(
                    (d["throughput_factor"] for d in degradations
                     if d["throughput_factor"] is not None),
                    default=None),
                "deadline_misses": sum(d["deadline_misses"]
                                       for d in degradations),
                "remap_verified": all(d["remap_verified"]
                                      for d in degradations),
            },
            "fast_forward": campaign.specs[0].fast_forward,
            "workers": campaign.workers,
            "resumed": campaign.resumed,
            "worker_crashes": campaign.crashes,
            "worker_timeouts": campaign.timeouts,
            "retried_jobs": len(retried),
            "retries": {
                f"trial{job.spec.trial:03d}": job.retry_summary()
                for job in retried
            },
        },
    ), directory=directory)
