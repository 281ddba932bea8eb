"""Escalation: cycle-accurate simulation of Pareto-frontier candidates.

The analytical fast path ranks every sweep point; only the survivors
earn a real simulation.  Escalation rides the existing farm scheduler —
a :class:`DseSimSpec` is just another job spec, except it carries its
own ``run_in_worker`` payload (custom geometry, custom lead mapping)
instead of the patient-stream semantics of
:class:`repro.farm.jobs.FarmJobSpec`.  The worker runtime dispatches on
that attribute, so crash respawn, retries and fail-fast all transfer
unchanged.

``farm_warm = False`` opts out of the worker's ECG warm-up run: an
escalated geometry compiles its own program image anyway, and the warm
probe would simulate the *default* geometry for nothing.

Results come home as pickle-friendly canonical dicts (plus the stats
digest computed in the worker) so the driver can cache them verbatim
and tests can rebuild a :class:`SimulationStats` for the power model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.manifest import _canonical, stats_digest
from repro.platform.stats import CoreStats, SimulationStats
from repro.dse.space import DesignPoint

#: Cache-key fingerprint for escalated simulations (independent of the
#: analytical MODEL_VERSION: a formula change must not invalidate
#: cached cycle-accurate truth).
SIM_VERSION = "dse-sim/1"


@dataclass(frozen=True)
class DseSimResult:
    """One escalated simulation, reduced to picklable facts."""

    job_id: int
    worker_id: int
    arch: str
    stats: dict                #: canonical SimulationStats dump
    stats_digest: str
    total_cycles: int
    wall_time_s: float


@dataclass(frozen=True)
class DseSimSpec:
    """Cycle-accurate simulation of one structural design point."""

    arch: str
    n_cores: int
    im_banks: int
    im_bank_words: int
    dm_banks: int
    dm_bank_words: int
    dm_shared_words_per_bank: int
    huffman_private: bool
    n_samples: int = 512
    n_measurements: int = 256
    fast_forward: bool = True

    #: Worker protocol: skip the default-geometry warm-up run.
    farm_warm = False

    def config(self):
        from repro.platform.config import build_config
        return build_config(
            self.arch, n_cores=self.n_cores, im_banks=self.im_banks,
            im_bank_words=self.im_bank_words, dm_banks=self.dm_banks,
            dm_bank_words=self.dm_bank_words,
            dm_shared_words_per_bank=self.dm_shared_words_per_bank)

    def run_in_worker(self, job_id: int, worker_id: int = 0) -> DseSimResult:
        """Build, simulate and verify this geometry (worker payload)."""
        from repro.kernels.benchmark import BenchmarkSpec, \
            build_benchmark, verify_result
        from repro.platform.multicore import MultiCoreSystem

        started = time.perf_counter()
        built = build_benchmark(BenchmarkSpec(
            n_leads=self.n_cores, n_samples=self.n_samples,
            n_measurements=self.n_measurements,
            huffman_private=self.huffman_private))
        system = MultiCoreSystem(self.config(),
                                 fast_forward=self.fast_forward)
        result = system.run(built.benchmark)
        verify_result(built, result)
        return DseSimResult(
            job_id=job_id,
            worker_id=worker_id,
            arch=self.arch,
            stats=_canonical(result.stats),
            stats_digest=stats_digest(result.stats),
            total_cycles=result.stats.total_cycles,
            wall_time_s=time.perf_counter() - started,
        )


def spec_for(point: DesignPoint, *, fast_forward: bool = True,
             n_samples: int = 512, n_measurements: int = 256) -> DseSimSpec:
    """The simulation spec behind one design point's structural family."""
    return DseSimSpec(
        arch=point.arch, n_cores=point.n_cores, im_banks=point.im_banks,
        im_bank_words=point.im_bank_words, dm_banks=point.dm_banks,
        dm_bank_words=point.dm_bank_words,
        dm_shared_words_per_bank=point.dm_shared_words_per_bank,
        huffman_private=point.huffman_private,
        n_samples=n_samples, n_measurements=n_measurements,
        fast_forward=fast_forward)


def stats_from_canonical(payload: dict) -> SimulationStats:
    """Rebuild a :class:`SimulationStats` from its canonical dump."""
    cores = [CoreStats(**core) for core in payload.get("cores", [])]
    fields = {key: value for key, value in payload.items()
              if key != "cores"}
    return SimulationStats(cores=cores, **fields)


def run_escalations(specs: dict, workers: int = 1) -> dict:
    """Simulate ``{key: DseSimSpec}`` on the farm; ``{key: DseSimResult}``.

    Raises :class:`RuntimeError` listing every job that stayed failed
    after the scheduler's retries — a partial front is worse than a
    loud stop, because downstream fidelity numbers would silently
    compare against holes.
    """
    from repro.farm.jobs import JobState, run_jobs

    jobs = dict(zip(specs, run_jobs(list(specs.values()),
                                    workers=workers).jobs))
    failures = [f"{key}: {job.state.value}"
                + (f" ({job.error.strip().splitlines()[-1]})"
                   if job.error else "")
                for key, job in jobs.items()
                if job.state is not JobState.DONE]
    if failures:
        raise RuntimeError("escalation failed for " + "; ".join(failures))
    return {key: job.result for key, job in jobs.items()}
