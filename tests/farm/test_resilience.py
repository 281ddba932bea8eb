"""Hang-proof farm contracts: timeouts, heartbeats, channels, resume.

Two kill channels, distinguished in the job record: the per-job
wall-clock timeout catches pure-Python hangs (the worker keeps beating,
the job never finishes), the heartbeat timeout catches wedged
interpreters (the sidecar stops beating entirely).  Both requeue the
job with exponential backoff and the cause attributed.  Each worker
talks to the scheduler on its own channel, so one that dies mid-message
costs nothing but its own job.  Checkpoints make an interrupted fleet
resumable with zero recomputation and a bit-identical digest —
including after SIGKILL of the driver, which takes its workers with it.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.farm import FarmScheduler, JobState, build_plan, run_farm
from repro.farm.checkpoint import Checkpoint, checkpoint_path, spec_key
from repro.farm.fleet import plan_identity, write_fleet_manifests
from repro.farm.jobs import respec
from repro.obs import read_manifests

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

SMALL = dict(n_samples=64, n_measurements=32, n_blocks=1,
             window_cycles=4096)


def small_plan(runs=3, **overrides):
    return build_plan(runs, ["mc-ref"], **{**SMALL, **overrides})


@dataclass(frozen=True)
class QuickSpec:
    """Instant no-simulation job so timeout tests measure the
    scheduler, not the simulator."""

    shard_index: int = 0
    fault: str | None = None

    farm_warm: ClassVar[bool] = False

    def run_in_worker(self, job_id, worker_id=0):
        return {"job_id": job_id, "worker_id": worker_id}


class TestTimeouts:
    def test_hanging_job_killed_on_wall_clock_timeout(self):
        """A job that spins (while still beating) overruns the job
        timeout: its worker is killed, the job requeues with cause
        'timeout' and completes on the second attempt."""
        with FarmScheduler(workers=1, max_retries=1, warm=False,
                           job_timeout_s=1.0,
                           backoff_base_s=0.01) as farm:
            farm.submit(QuickSpec(fault="hang"))
            jobs = farm.run_until_complete()
            assert farm.timeouts == 1
        job = jobs[0]
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert [entry["cause"] for entry in job.retries] == ["timeout"]
        assert "wall-clock budget" in job.retries[0]["error"]
        summary = job.retry_summary()
        assert summary["causes"] == ["timeout"]
        assert summary["backoff_schedule_s"] == [0.01]

    def test_wedged_worker_caught_by_heartbeat(self):
        """A worker whose heartbeat goes silent is distinguished from a
        wall-clock overrun: cause 'heartbeat'."""
        with FarmScheduler(workers=1, max_retries=1, warm=False,
                           heartbeat_timeout_s=1.0,
                           heartbeat_interval_s=0.05,
                           backoff_base_s=0.01) as farm:
            farm.submit(QuickSpec(fault="wedge"))
            jobs = farm.run_until_complete()
            assert farm.timeouts == 1
        job = jobs[0]
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert [entry["cause"] for entry in job.retries] == ["heartbeat"]
        assert "no heartbeat" in job.retries[0]["error"]

    def test_backoff_schedule_is_exponential(self):
        """A deterministic failer records base * 2**(k-1) backoffs."""
        with FarmScheduler(workers=1, max_retries=2, warm=False,
                           backoff_base_s=0.01) as farm:
            farm.submit(respec(small_plan(1)[0], fault="raise"))
            jobs = farm.run_until_complete()
        job = jobs[0]
        assert job.state is JobState.FAILED
        assert job.attempts == 3
        assert [entry["cause"] for entry in job.retries] \
            == ["error", "error", "error"]
        assert job.retry_summary()["backoff_schedule_s"] \
            == [0.01, 0.02, 0.04]

    def test_timeout_knobs_validated(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            FarmScheduler(job_timeout_s=0)
        with pytest.raises(ConfigurationError):
            FarmScheduler(heartbeat_timeout_s=-1)


class TestChannels:
    #: How late a poll may return past its timeout (a respawn forks).
    SLACK_S = 2.0

    def test_worker_dying_mid_send_loses_nothing_else(self):
        """A worker that dies halfway through a message, holding its
        send lock, breaks only its own channel: its job fails as a
        crash, every other job completes, and no poll blocks on the
        truncated message."""
        def overran(signum, frame):
            raise TimeoutError("poll() blocked past its timeout")

        previous = signal.signal(signal.SIGALRM, overran)
        try:
            with FarmScheduler(workers=2, max_retries=0,
                               warm=False) as farm:
                hook = farm.submit(QuickSpec(fault="exit-mid-send"))
                others = [farm.submit(QuickSpec(shard_index=index))
                          for index in range(1, 5)]
                deadline = time.monotonic() + 30
                while farm.outstanding:
                    assert time.monotonic() < deadline, \
                        "jobs stopped completing"
                    signal.setitimer(signal.ITIMER_REAL,
                                     0.05 + self.SLACK_S)
                    started = time.monotonic()
                    farm.poll(timeout=0.05)
                    elapsed = time.monotonic() - started
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    assert elapsed < 0.05 + self.SLACK_S
                assert farm.crashes == 1
                jobs = farm.jobs
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert jobs[hook].state is JobState.FAILED
        assert [entry["cause"] for entry in jobs[hook].retries] == ["crash"]
        assert [jobs[job_id].state for job_id in others] \
            == [JobState.DONE] * 4


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie awaiting its reaper does not."""
    try:
        os.kill(pid, 0)
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except ProcessLookupError:
        return False
    except FileNotFoundError:
        return not os.path.isdir("/proc")  # no procfs: kill(0) decides
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestRetryAccountingInManifests:
    def test_heartbeat_retry_lands_in_farm_record(self, tmp_path):
        """The farm manifest record carries attempts, cause and the
        backoff schedule for a shard that needed a requeue."""
        plan = small_plan(2)
        plan[0] = respec(plan[0], fault="wedge")
        fleet = run_farm(plan, workers=2, max_retries=1,
                         heartbeat_timeout_s=2.0)
        assert fleet.ok
        assert fleet.timeouts == 1
        write_fleet_manifests(fleet, directory=tmp_path)
        records = read_manifests(directory=tmp_path)
        farm = {r["extra"]["shard_index"]: r for r in records
                if r["kind"] == "farm"}
        assert farm[0]["extra"]["attempts"] == 2
        assert [entry["cause"]
                for entry in farm[0]["extra"]["retries"]] == ["heartbeat"]
        assert farm[1]["extra"]["attempts"] == 1
        assert farm[1]["extra"]["retries"] == []
        fleet_record = next(r for r in records if r["kind"] == "fleet")
        summary = fleet_record["extra"]["fleet"]
        assert summary["worker_timeouts"] == 1
        assert summary["retried_jobs"] == 1
        assert summary["retries"]["shard000"]["causes"] == ["heartbeat"]


class TestCheckpoint:
    def test_round_trip_and_later_records_win(self, tmp_path):
        store = Checkpoint(tmp_path / "ck.jsonl")
        store.append("k1", {"value": 1})
        store.append("k2", {"value": 2})
        store.append("k1", {"value": 3})
        assert store.load() == {"k1": {"value": 3}, "k2": {"value": 2}}

    def test_truncated_tail_skipped_with_counted_warning(self, tmp_path,
                                                         capsys):
        store = Checkpoint(tmp_path / "ck.jsonl")
        store.append("k1", {"value": 1})
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-checkpoint/1", "spec_')
        assert store.load() == {"k1": {"value": 1}}
        assert store.skipped == 1
        assert "skipped 1 corrupt checkpoint line" in \
            capsys.readouterr().err

    def test_path_derivation_is_identity_stable(self, tmp_path):
        plan = small_plan(3)
        identity = plan_identity(plan, 2012)
        one = checkpoint_path(tmp_path, "farm", identity)
        two = checkpoint_path(tmp_path, "farm", identity)
        other = checkpoint_path(
            tmp_path, "farm", plan_identity(small_plan(4), 2012))
        assert one == two
        assert one != other
        assert one.parent == tmp_path / "checkpoints"

    def test_resume_recomputes_nothing(self, tmp_path):
        plan = small_plan(3)
        checkpoint = tmp_path / "fleet.jsonl"
        cold = run_farm(plan, workers=2, checkpoint=checkpoint)
        assert cold.ok and cold.resumed == 0
        resumed = run_farm(plan, workers=2, checkpoint=checkpoint,
                           resume=True)
        assert resumed.ok
        assert resumed.resumed == 3
        assert all(job.resumed for job in resumed.jobs)
        assert resumed.digest() == cold.digest()
        assert [r.stats_digest for r in resumed.completed()] \
            == [r.stats_digest for r in cold.completed()]

    def test_sigkill_mid_fleet_then_resume_bit_identical(self, tmp_path):
        """SIGKILL the driver alone mid-fleet: its workers exit with it,
        and the resume picks up the checkpointed shards and reproduces
        the digest of an uninterrupted run."""
        plan = small_plan(6)
        checkpoint = tmp_path / "fleet.jsonl"
        pids = tmp_path / "pids"
        reference = run_farm(plan, workers=1)
        assert reference.ok

        # The driver records its pool after each shard, so the pids are
        # known before the kill.
        script = (
            "import multiprocessing, pathlib, sys\n"
            "sys.path.insert(0, {src!r})\n"
            "from repro.farm import build_plan, run_farm\n"
            "def record(job, done, total):\n"
            "    pids = [p.pid for p in multiprocessing.active_children()]\n"
            "    staged = pathlib.Path({pids!r} + '.tmp')\n"
            "    staged.write_text(' '.join(map(str, pids)))\n"
            "    staged.replace({pids!r})\n"
            "plan = build_plan(6, ['mc-ref'], n_samples=64, "
            "n_measurements=32, n_blocks=1, window_cycles=4096)\n"
            "run_farm(plan, workers=2, checkpoint={checkpoint!r}, "
            "on_job=record)\n"
        ).format(src=str(REPO_ROOT / "src"), checkpoint=str(checkpoint),
                 pids=str(pids))
        stderr = tmp_path / "stderr"
        with open(stderr, "w", encoding="utf-8") as handle:
            process = subprocess.Popen([sys.executable, "-c", script],
                                       cwd=str(REPO_ROOT), stderr=handle)
        # Wait for at least one shard to checkpoint, then SIGKILL.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if pids.exists() and pids.read_text().strip():
                break
            time.sleep(0.05)
        workers = [int(pid) for pid in pids.read_text().split()]
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=10)
        try:
            assert len(workers) == 2
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)], \
                "a worker outlived its killed driver"
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
        assert "Traceback" not in stderr.read_text(), "a worker left noisily"

        prior = Checkpoint(checkpoint).load()
        assert prior, "driver was killed before any shard checkpointed"
        resumed = run_farm(plan, workers=1, checkpoint=checkpoint,
                           resume=True)
        assert resumed.ok
        assert resumed.resumed >= 1
        assert resumed.resumed == len(prior)
        assert resumed.digest() == reference.digest()

    def test_spec_key_separates_engines_and_seeds(self):
        base = small_plan(1)[0]
        assert spec_key(base) == spec_key(small_plan(1)[0])
        assert spec_key(base) != spec_key(respec(base, seed=1))
        assert spec_key(base) != spec_key(respec(base,
                                                 fast_forward=False))
