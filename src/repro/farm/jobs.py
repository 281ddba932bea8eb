"""Farm job model and process-pool scheduler.

A *job* is one independent patient run: a :class:`FarmJobSpec` naming
the workload seed, architecture, geometry and telemetry window
settings.  Jobs carry no object graphs — specs are small frozen
dataclasses that pickle cheaply across the process boundary, and every
simulated quantity a job produces is a pure function of its spec
(:func:`shard_seed` makes the per-shard seeds a pure function of
``(base_seed, shard_index)``), so results are bit-identical no matter
how many workers run them or in which order.

The :class:`FarmScheduler` owns a pool of worker processes
(:mod:`repro.farm.worker`), each fed through its own pipe so a crash is
attributable to exactly one in-flight job.  The loop is
submit/poll/cancel:

* ``submit()`` queues a spec; at most one job is in flight per worker
  (dispatch happens only to an idle, live worker), the rest wait in the
  scheduler's own queue — in-flight work is bounded by the pool size,
  never by how fast the caller submits.
* ``poll()`` drains finished results without blocking;
  ``run_until_complete()`` loops it with liveness checks.
* A worker that dies mid-job (OOM kill, segfault, ``os._exit``) is
  detected via ``Process.is_alive()``; its job is marked failed and
  requeued up to ``max_retries`` times, and a replacement worker is
  spawned so the pool never shrinks.
* ``cancel()`` withdraws a queued job; ``fail_fast`` cancels the rest
  of the queue after the first terminal failure.
"""

from __future__ import annotations

import enum
import hashlib
import multiprocessing
import queue as queue_module
import time
from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

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
    kills the worker process outright (crash path).  Production specs
    leave it ``None``.
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
    """One pool member: process + its private job pipe."""

    def __init__(self, ctx, worker_id: int, result_queue, warm: bool,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL):
        from repro.farm.worker import worker_main
        self.worker_id = worker_id
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.job: FarmJob | None = None
        self.ready = False
        self.warm_info: dict | None = None
        self.job_started: float | None = None
        self.last_beat = time.monotonic()
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, result_queue, warm,
                  heartbeat_interval),
            daemon=True)
        self.process.start()
        child_conn.close()

    def send(self, spec: FarmJobSpec | None) -> None:
        self.conn.send(spec)

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop a hung worker (SIGKILL; it holds no locks we
        need — results travel through the queue, manifests are written
        by the scheduler process only)."""
        try:
            self.process.kill()
        except (OSError, AttributeError):  # pragma: no cover
            self.process.terminate()
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
                 start_method: str | None = None,
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
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            # fork inherits the parent's warm caches for free; fall
            # back to spawn elsewhere (workers then warm themselves).
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise ConfigurationError(
                f"start method {start_method!r} not available "
                f"(have {methods})")
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method
        self.n_workers = workers
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
        self._results = self._ctx.Queue()
        self._workers = [self._spawn(i) for i in range(workers)]
        self._next_worker_id = workers
        self._closed = False

    def _spawn(self, worker_id: int) -> _Worker:
        return _Worker(self._ctx, worker_id, self._results, self.warm,
                       self.heartbeat_interval_s)

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

    @property
    def in_flight(self) -> int:
        return sum(1 for worker in self._workers if worker.job is not None)

    def poll(self, timeout: float = 0.0) -> list[FarmJob]:
        """One scheduler tick: dispatch, drain results, detect crashes.

        Returns the jobs that reached a terminal state during this
        call; never blocks longer than ``timeout``.
        """
        self._dispatch()
        finished = self._drain(timeout)
        finished.extend(self._check_health())
        finished.extend(self._reap_crashes())
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
            if worker.job is not None or not worker.alive():
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
                worker.send((job.job_id, job.spec, job.attempts))
            except (OSError, BrokenPipeError):
                worker.job = None
                worker.job_started = None
                self._handle_crash(worker, job)

    def _drain(self, timeout: float) -> list[FarmJob]:
        finished = []
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            try:
                message = self._results.get(
                    timeout=max(0.0, remaining)) \
                    if timeout > 0 else self._results.get_nowait()
            except queue_module.Empty:
                break
            finished.extend(self._on_message(message))
            timeout = 0  # drain whatever else is ready, non-blocking
        return finished

    def _on_message(self, message) -> list[FarmJob]:
        kind, worker_id, payload = message
        worker = self._worker_by_id(worker_id)
        if kind == "ready":
            if worker is not None:
                worker.ready = True
                worker.warm_info = payload
            return []
        if kind == "beat":
            if worker is not None:
                worker.last_beat = time.monotonic()
            return []
        job_id, body = payload
        job = self.jobs.get(job_id)
        if job is None or job.terminal:
            return []
        if worker is not None and worker.job is job:
            worker.job = None
            worker.job_started = None
        if kind == "done":
            job.result = body
            self._finish(job, JobState.DONE)
        else:  # "failed": in-worker exception — retry like a crash
            job.error = body
            if not self._requeue(job, "error"):
                self._finish(job, JobState.FAILED)
        return [job] if job.terminal else []

    def _worker_by_id(self, worker_id: int) -> _Worker | None:
        for worker in self._workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def _check_health(self) -> list[FarmJob]:
        """Kill workers whose job overran its wall-clock cap or whose
        heartbeat went silent; the job requeues with the cause
        attributed ("timeout" vs "heartbeat" vs plain "crash")."""
        if self.job_timeout_s is None and self.heartbeat_timeout_s is None:
            return []
        finished = []
        now = time.monotonic()
        for index, worker in enumerate(self._workers):
            job = worker.job
            if job is None or not worker.alive():
                continue
            cause = None
            if self.job_timeout_s is not None \
                    and worker.job_started is not None \
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
            if cause is None:
                continue
            self.timeouts += 1
            worker.job = None
            worker.job_started = None
            worker.kill()
            worker.close()
            self._workers[index] = self._spawn(self._next_worker_id)
            self._next_worker_id += 1
            job.error = detail
            if not self._requeue(job, cause):
                self._finish(job, JobState.FAILED)
                finished.append(job)
        return finished

    def _reap_crashes(self) -> list[FarmJob]:
        finished = []
        for index, worker in enumerate(self._workers):
            if worker.alive():
                continue
            job, worker.job = worker.job, None
            worker.close()
            self._workers[index] = self._spawn(self._next_worker_id)
            self._next_worker_id += 1
            if job is not None and not job.terminal:
                self.crashes += 1
                finished.extend(self._handle_crash(None, job))
        return finished

    def _handle_crash(self, worker, job: FarmJob) -> list[FarmJob]:
        job.error = job.error or \
            f"worker {job.worker_id} died while running job {job.job_id}"
        if self._requeue(job, "crash"):
            return []
        self._finish(job, JobState.FAILED)
        return [job]

    def _requeue(self, job: FarmJob, cause: str) -> bool:
        backoff = self.backoff_base_s * (2 ** (job.attempts - 1))
        job.retries.append({
            "attempt": job.attempts,
            "cause": cause,
            "error": job.error,
            "backoff_s": backoff,
        })
        if job.attempts > self.max_retries:
            return False
        job.state = JobState.PENDING
        job.worker_id = None
        job.not_before = time.monotonic() + backoff
        self._pending.append(job.job_id)
        return True

    def _finish(self, job: FarmJob, state: JobState) -> None:
        job.state = state
        job.finished_at = time.monotonic()
        for listener in self.listeners:
            listener(job)

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.send(None)
            except (OSError, BrokenPipeError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            worker.close()
        self._results.close()
        self._results.join_thread()

    def __enter__(self) -> "FarmScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def respec(spec: FarmJobSpec, **overrides) -> FarmJobSpec:
    """A copy of ``spec`` with fields replaced (thin dataclass helper)."""
    return replace(spec, **overrides)
