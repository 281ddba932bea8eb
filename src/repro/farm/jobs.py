"""Farm job model, process-pool scheduler and checkpointed job driver.

A *job* is one independent patient run: a :class:`FarmJobSpec` naming
the workload seed, architecture, geometry and telemetry window
settings.  Jobs carry no object graphs — specs are small frozen
dataclasses that pickle cheaply across the process boundary, and every
simulated quantity a job produces is a pure function of its spec
(:func:`shard_seed` makes the per-shard seeds a pure function of
``(base_seed, shard_index)``), so results are bit-identical no matter
how many workers run them or in which order.

The :class:`FarmScheduler` owns a pool of worker processes
(:mod:`repro.farm.worker`).  Each worker has one duplex pipe, its
*channel*: jobs go out on it, and the worker's ``ready`` report, its
heartbeats and its results come back on it.  A crash is therefore
attributable to exactly one in-flight job, and a worker that dies
mid-message breaks only its own channel.  The loop is
submit/poll/cancel:

* ``submit()`` queues a spec; at most one job is in flight per worker
  (dispatch happens only to an idle worker), the rest wait in the
  scheduler's own queue — in-flight work is bounded by the pool size,
  never by how fast the caller submits.
* ``poll()`` waits on every channel at once, up to its timeout, and
  drains what arrived; ``run_until_complete()`` loops it.
* A worker that dies (OOM kill, segfault, ``os._exit``) is detected on
  its channel: EOF, or a message cut short.  Nothing polls
  ``Process.is_alive()``.  The job it was running is requeued up to
  ``max_retries`` times, and a replacement worker is spawned so the
  pool never shrinks.
* ``cancel()`` withdraws a queued job; ``fail_fast`` cancels the rest
  of the queue after the first terminal failure.

:func:`run_jobs` drives one pool through a list of specs with
checkpoint/resume; fleets, fault campaigns and design-space escalations
all run through it.
"""

from __future__ import annotations

import enum
import hashlib
import multiprocessing
import time
from dataclasses import asdict, dataclass, field, replace
from multiprocessing.connection import wait

from repro.errors import ConfigurationError
from repro.farm.checkpoint import Checkpoint, spec_key

#: Retry cap default: one requeue after a crash, then the job fails
#: terminally (a deterministic crasher would otherwise loop forever).
DEFAULT_MAX_RETRIES = 1

#: How often workers report liveness (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 0.1

#: Base of the exponential requeue backoff: attempt ``k`` waits
#: ``base * 2**(k-1)`` seconds before redispatch.
DEFAULT_BACKOFF_BASE = 0.25


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Deterministic per-shard workload seed.

    A pure function of ``(base_seed, shard_index)`` — independent of
    worker count, submission order and scheduling — so every shard
    simulates the same patient recording no matter how the farm is
    sized.  Hashed rather than ``base_seed + shard_index`` so
    neighbouring shards do not draw overlapping ECG generator streams.
    """
    payload = f"repro-farm:{base_seed}:{shard_index}".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")


@dataclass(frozen=True)
class FarmJobSpec:
    """Everything one patient run depends on (identity-bearing).

    ``fault`` is a test hook executed inside the worker: ``"raise"``
    fails the job with an exception (reported failure), ``"exit"``
    kills the worker process outright (crash path); ``"hang"``,
    ``"wedge"`` and ``"exit-mid-send"`` are the worker's own hooks (see
    :func:`repro.farm.worker.worker_main`).  Production specs leave it
    ``None``.
    """

    shard_index: int
    seed: int
    arch: str
    n_samples: int = 512
    n_measurements: int = 256
    n_blocks: int = 2
    window_cycles: int = 8192
    clock_hz: float = 1e6
    fast_forward: bool = True
    fault: str | None = None

    def __post_init__(self):
        # Checked here, before any worker starts: a bad size would
        # otherwise fail inside every worker and be retried as a crash.
        for name in ("n_samples", "n_measurements", "n_blocks",
                     "window_cycles"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if not self.clock_hz > 0:
            raise ConfigurationError(
                f"clock_hz must be > 0, got {self.clock_hz}")


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class FarmJob:
    """One tracked job: spec plus scheduling state."""

    job_id: int
    spec: FarmJobSpec
    state: JobState = JobState.PENDING
    attempts: int = 0
    worker_id: int | None = None
    result: object | None = None   # JobResult when DONE
    error: str | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    finished_at: float | None = None
    #: One entry per requeue: {attempt, cause, error, backoff_s}.
    #: ``cause`` is "crash" (worker died), "timeout" (wall-clock cap),
    #: "heartbeat" (worker stopped beating) or "error" (in-worker
    #: exception) — the distinction the manifest records surface.
    retries: list = field(default_factory=list)
    not_before: float = 0.0        # backoff: earliest redispatch time
    resumed: bool = False          # satisfied from a checkpoint

    @property
    def terminal(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED,
                              JobState.CANCELLED)

    def retry_summary(self) -> dict:
        """Requeue accounting for manifests and progress streams."""
        return {
            "attempts": self.attempts,
            "retries": [dict(entry) for entry in self.retries],
            "causes": sorted({entry["cause"] for entry in self.retries}),
            "backoff_schedule_s": [entry["backoff_s"]
                                   for entry in self.retries],
        }


class _Worker:
    """One pool member: process plus the scheduler's end of its channel."""

    def __init__(self, ctx, worker_id: int, warm: bool,
                 heartbeat_interval: float, inherited):
        from repro.farm.worker import worker_main
        self.worker_id = worker_id
        self.conn, child_conn = ctx.Pipe()
        self.job: FarmJob | None = None
        self.warm_info: dict | None = None
        self.job_started: float | None = None
        self.last_beat = time.monotonic()
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, (self.conn, *inherited), warm,
                  heartbeat_interval),
            daemon=True)
        self.process.start()
        child_conn.close()

    def kill(self) -> None:
        """Hard-stop the worker (SIGKILL).  Nothing the scheduler needs
        dies with it: the worker's channel is its own, and manifests and
        checkpoints are written by the scheduler process only."""
        self.process.kill()
        self.process.join(1.0)

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class FarmScheduler:
    """Shard N independent runs across a bounded worker pool.

    Use as a context manager (or call :meth:`shutdown`)::

        with FarmScheduler(workers=4) as farm:
            ids = [farm.submit(spec) for spec in plan]
            jobs = farm.run_until_complete()

    ``warm=False`` makes every job start from cold caches (the workers
    clear the decode-table and block caches before each job) — the
    control arm of the warm-cache measurement in
    ``benchmarks/bench_farm.py``.
    """

    def __init__(self, workers: int = 2,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 warm: bool = True, fail_fast: bool = False,
                 job_timeout_s: float | None = None,
                 heartbeat_timeout_s: float | None = None,
                 heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE):
        if workers < 1:
            raise ConfigurationError("need at least one worker")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if job_timeout_s is not None and job_timeout_s <= 0:
            raise ConfigurationError("job_timeout_s must be positive")
        if heartbeat_timeout_s is not None and heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat_timeout_s must be positive")
        # fork inherits the parent's warm caches for free; fall back to
        # spawn elsewhere (workers then warm themselves).
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self.max_retries = max_retries
        self.warm = warm
        self.fail_fast = fail_fast
        self.job_timeout_s = job_timeout_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.backoff_base_s = backoff_base_s
        self.jobs: dict[int, FarmJob] = {}
        self.listeners: list = []      # called with each terminal FarmJob
        self.crashes = 0               # workers lost mid-job
        self.timeouts = 0              # workers killed (timeout/heartbeat)
        self._pending: list[int] = []  # job ids awaiting dispatch
        self._next_id = 0
        self._workers: list[_Worker] = []
        self._next_worker_id = 0
        for _ in range(workers):
            self._workers.append(self._spawn())
        self._closed = False

    def _spawn(self) -> _Worker:
        # A forked worker inherits the scheduler's end of every open
        # channel and closes them, so only this process holds them and
        # its death is EOF on every worker's channel.
        inherited = [worker.conn for worker in self._workers
                     if not worker.conn.closed]
        worker = _Worker(self._ctx, self._next_worker_id, self.warm,
                         self.heartbeat_interval_s, inherited)
        self._next_worker_id += 1
        return worker

    def _replace(self, worker: _Worker) -> None:
        """Stop ``worker`` and spawn its successor in its pool slot."""
        worker.kill()
        worker.close()
        self._workers[self._workers.index(worker)] = self._spawn()

    # -- submission --------------------------------------------------------

    def submit(self, spec: FarmJobSpec) -> int:
        """Queue one job; returns its job id."""
        if self._closed:
            raise ConfigurationError("scheduler is shut down")
        job = FarmJob(job_id=self._next_id, spec=spec)
        self._next_id += 1
        self.jobs[job.job_id] = job
        self._pending.append(job.job_id)
        return job.job_id

    def cancel(self, job_id: int) -> bool:
        """Withdraw a still-pending job.  Running jobs are not
        preempted (a simulation has no safe interruption point);
        returns False for them and for already-terminal jobs."""
        job = self.jobs[job_id]
        if job.state is JobState.PENDING and job_id in self._pending:
            self._pending.remove(job_id)
            self._finish(job, JobState.CANCELLED)
            return True
        return False

    # -- progress ----------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return sum(1 for job in self.jobs.values() if not job.terminal)

    def poll(self, timeout: float = 0.0) -> list[FarmJob]:
        """One scheduler tick: dispatch, read the channels, enforce the
        job and heartbeat timeouts.

        Returns the jobs that reached a terminal state during this
        call; waits at most ``timeout`` for a message.
        """
        self._dispatch()
        finished = self._drain(timeout)
        finished.extend(self._check_health())
        if self.fail_fast and any(job.state is JobState.FAILED
                                  for job in finished):
            for job_id in list(self._pending):
                job = self.jobs[job_id]
                self._pending.remove(job_id)
                self._finish(job, JobState.CANCELLED)
                finished.append(job)
        return finished

    def run_until_complete(self, tick: float = 0.05) -> list[FarmJob]:
        """Drive :meth:`poll` until every submitted job is terminal."""
        while self.outstanding:
            self.poll(timeout=tick)
        return [self.jobs[job_id] for job_id in sorted(self.jobs)]

    def warm_reports(self) -> list[dict]:
        """Per-worker warm-up reports received so far."""
        return [worker.warm_info for worker in self._workers
                if worker.warm_info is not None]

    # -- internals ---------------------------------------------------------

    def _dispatch(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if not self._pending:
                return
            if worker.job is not None:
                continue
            # First pending job past its backoff window (submission
            # order otherwise preserved).
            job = None
            for index, job_id in enumerate(self._pending):
                candidate = self.jobs[job_id]
                if candidate.not_before <= now:
                    job = candidate
                    del self._pending[index]
                    break
            if job is None:
                return  # everything pending is still backing off
            job.state = JobState.RUNNING
            job.worker_id = worker.worker_id
            job.attempts += 1
            worker.job = job
            worker.job_started = now
            worker.last_beat = now
            try:
                worker.conn.send((job.job_id, job.spec, job.attempts))
            except OSError:
                pass  # dead worker: _drain reads its EOF, requeues the job

    def _drain(self, timeout: float) -> list[FarmJob]:
        """Wait up to ``timeout`` for any channel, then read every message
        that has arrived.  EOF, or a message cut short by the sender's
        death, means that worker crashed; an error a listener raises
        while a message is handled propagates to the caller."""
        finished = []
        workers = {worker.conn: worker for worker in self._workers}
        for conn in wait(list(workers), timeout):
            worker = workers[conn]
            while True:
                try:
                    if not conn.poll():
                        break
                    message = conn.recv()
                except (EOFError, OSError):
                    finished.extend(self._on_crash(worker))
                    break
                finished.extend(self._on_message(worker, *message))
        return finished

    def _on_message(self, worker: _Worker, kind: str,
                    payload) -> list[FarmJob]:
        if kind == "ready":
            worker.warm_info = payload
            return []
        if kind == "beat":
            worker.last_beat = time.monotonic()
            return []
        job, worker.job, worker.job_started = worker.job, None, None
        if kind == "done":
            job.result = payload
            self._finish(job, JobState.DONE)
            return [job]
        # "failed": in-worker exception — retry like a crash
        return self._retry(job, "error", payload)

    def _on_crash(self, worker: _Worker) -> list[FarmJob]:
        """Respawn a worker whose channel broke; requeue its job.  An
        idle worker that dies is replaced without counting a crash."""
        job = worker.job
        self._replace(worker)
        if job is None:
            return []
        self.crashes += 1
        return self._retry(job, "crash", job.error or (
            f"worker {job.worker_id} died while running job {job.job_id}"))

    def _check_health(self) -> list[FarmJob]:
        """Kill workers whose job overran its wall-clock cap or whose
        heartbeat went silent; the job requeues with the cause
        attributed ("timeout" vs "heartbeat" vs plain "crash")."""
        if self.job_timeout_s is None and self.heartbeat_timeout_s is None:
            return []
        finished = []
        now = time.monotonic()
        for worker in list(self._workers):
            job = worker.job
            if job is None:
                continue
            if self.job_timeout_s is not None \
                    and now - worker.job_started >= self.job_timeout_s:
                cause = "timeout"
                detail = (f"job {job.job_id} exceeded its "
                          f"{self.job_timeout_s:g}s wall-clock budget on "
                          f"worker {worker.worker_id}")
            elif self.heartbeat_timeout_s is not None \
                    and now - worker.last_beat >= self.heartbeat_timeout_s:
                cause = "heartbeat"
                detail = (f"worker {worker.worker_id} sent no heartbeat "
                          f"for {self.heartbeat_timeout_s:g}s while "
                          f"running job {job.job_id}")
            else:
                continue
            self.timeouts += 1
            self._replace(worker)
            finished.extend(self._retry(job, cause, detail))
        return finished

    def _retry(self, job: FarmJob, cause: str, error: str) -> list[FarmJob]:
        """Record a failed attempt and requeue ``job`` after its backoff,
        or fail it once ``max_retries`` are used up.  Returns the job if
        it is now terminal."""
        job.error = error
        backoff = self.backoff_base_s * (2 ** (job.attempts - 1))
        job.retries.append({
            "attempt": job.attempts,
            "cause": cause,
            "error": error,
            "backoff_s": backoff,
        })
        if job.attempts > self.max_retries:
            self._finish(job, JobState.FAILED)
            return [job]
        job.state = JobState.PENDING
        job.worker_id = None
        job.not_before = time.monotonic() + backoff
        self._pending.append(job.job_id)
        return []

    def _finish(self, job: FarmJob, state: JobState) -> None:
        job.state = state
        job.finished_at = time.monotonic()
        for listener in self.listeners:
            listener(job)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent): closing a channel is the
        worker's signal to exit."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            worker.close()
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.kill()

    def __enter__(self) -> "FarmScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


@dataclass
class JobBatch:
    """What :func:`run_jobs` returns."""

    jobs: list[FarmJob]            # plan order
    warm_reports: list[dict]
    crashes: int                   # workers lost mid-job
    timeouts: int                  # workers killed (timeout/heartbeat)
    resumed: int                   # jobs satisfied from the checkpoint
    wall_time_s: float


def run_jobs(specs, *, workers: int = 2, load=None, checkpoint=None,
             resume: bool = False, on_job=None, **options) -> JobBatch:
    """Run ``specs`` to completion on one :class:`FarmScheduler`.

    ``checkpoint`` (a path) appends every job that finishes ``DONE`` to
    an atomic checkpoint JSONL, keyed by its spec.  With ``resume=True``
    specs already recorded there become ``resumed`` jobs whose result is
    ``load(payload)``, with no simulation; only the rest reach the pool,
    and when nothing is left no worker starts.  ``on_job(job, done,
    total)`` fires as each job turns terminal, resumed ones first.
    ``options`` are the scheduler's keyword arguments.
    """
    started = time.perf_counter()
    store = Checkpoint(checkpoint) if checkpoint is not None else None
    prior = store.load() if store is not None and resume else {}
    done = 0

    def finished(job: FarmJob) -> None:
        nonlocal done
        done += 1
        if job.state is JobState.DONE and store is not None \
                and not job.resumed:
            store.append(spec_key(job.spec), asdict(job.result))
        if on_job is not None:
            on_job(job, done, len(specs))

    jobs: list[FarmJob | None] = []
    for index, spec in enumerate(specs):
        payload = prior.get(spec_key(spec))
        jobs.append(None if payload is None else FarmJob(
            job_id=-(index + 1), spec=spec, state=JobState.DONE,
            result=load(payload), resumed=True))
    resumed = [job for job in jobs if job is not None]
    for job in resumed:
        finished(job)
    warm_reports: list[dict] = []
    crashes = timeouts = 0
    if len(resumed) < len(specs):
        with FarmScheduler(workers=workers, **options) as scheduler:
            scheduler.listeners.append(finished)
            submitted = {scheduler.submit(spec): index
                         for index, spec in enumerate(specs)
                         if jobs[index] is None}
            scheduler.run_until_complete()
            for job_id, index in submitted.items():
                jobs[index] = scheduler.jobs[job_id]
            warm_reports = scheduler.warm_reports()
            crashes, timeouts = scheduler.crashes, scheduler.timeouts
    return JobBatch(jobs=jobs, warm_reports=warm_reports, crashes=crashes,
                    timeouts=timeouts, resumed=len(resumed),
                    wall_time_s=time.perf_counter() - started)


def respec(spec: FarmJobSpec, **overrides) -> FarmJobSpec:
    """A copy of ``spec`` with fields replaced (thin dataclass helper)."""
    return replace(spec, **overrides)
