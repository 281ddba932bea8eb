"""Simulation farm: parallel multi-patient fleet runs.

The platform simulates one wearable node; the monitoring *service* the
paper motivates runs against whole patient populations.  This package
makes fleet-scale evaluation a first-class operation: it shards N
independent patient runs — each a ``(workload seed, architecture,
window settings)`` point — across a pool of worker processes, keeps the
per-process decode-table and block-translation caches warm across jobs,
and merges the per-run telemetry window streams into one fleet view
with p50/p99 cycle budgets and deadline-miss rates.

Layers, bottom up:

* :mod:`repro.farm.jobs` — the job model (:class:`FarmJobSpec`,
  deterministic per-shard seeds), the :class:`FarmScheduler`
  (submit/poll/cancel, bounded in-flight jobs, one channel per worker,
  crash detection with bounded requeue) and ``run_jobs``, the
  checkpointed driver fleets, fault campaigns and escalations share.
* :mod:`repro.farm.worker` — the worker runtime: warms the caches once
  per process, then executes jobs back to back, shipping a compact
  :class:`JobResult` (digests, window dicts, cache counters) home.
* :mod:`repro.farm.fleet` — fleet aggregation: plan builders, the
  :class:`FleetResult` merge (via
  :func:`repro.obs.telemetry.merge_window_lists`), and the per-run +
  fleet manifest records the ``repro regress`` gate consumes.

Determinism contract (test- and bench-enforced): every per-run
``stats_digest`` is a pure function of its :class:`FarmJobSpec` —
bit-identical across worker counts, submission order and scheduling
interleavings — and the fleet digest is an order-independent fold of
the per-run digests.
"""

from repro.farm.jobs import (
    FarmJob,
    FarmJobSpec,
    FarmScheduler,
    JobState,
    shard_seed,
)
from repro.farm.worker import JobResult, execute_job, warm_worker
from repro.farm.fleet import (
    FleetResult,
    build_plan,
    fleet_digest,
    run_farm,
)

__all__ = [
    "FarmJob",
    "FarmJobSpec",
    "FarmScheduler",
    "FleetResult",
    "JobResult",
    "JobState",
    "build_plan",
    "execute_job",
    "fleet_digest",
    "run_farm",
    "shard_seed",
    "warm_worker",
]
