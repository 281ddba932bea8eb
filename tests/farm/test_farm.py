"""Simulation-farm contracts: seeds, scheduling, crashes, determinism.

The farm's value rests on one promise (see :mod:`repro.farm`): every
simulated bit a fleet produces is a pure function of its plan — worker
count, submission order, warm/cold caches and crash-retries change only
wall-clock fields.  These tests pin that promise plus the scheduler's
failure semantics (reported exceptions retry, worker deaths respawn,
``fail_fast`` drains the queue) and the manifest shapes ``repro
regress`` consumes.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.farm import (
    FarmJobSpec,
    FarmScheduler,
    JobState,
    build_plan,
    execute_job,
    fleet_digest,
    run_farm,
    shard_seed,
)
from repro.farm.fleet import plan_identity, write_fleet_manifests
from repro.farm.jobs import respec
from repro.obs import read_manifests

#: Reduced geometry shared by every farm test (fast to simulate).
SMALL = dict(n_samples=64, n_measurements=32, n_blocks=1,
             window_cycles=4096)


def small_spec(**overrides) -> FarmJobSpec:
    fields = dict(shard_index=0, seed=shard_seed(2012, 0), arch="mc-ref",
                  **SMALL)
    fields.update(overrides)
    return FarmJobSpec(**fields)


class TestShardSeed:
    def test_pure_function_of_inputs(self):
        assert shard_seed(2012, 5) == shard_seed(2012, 5)
        assert shard_seed(2012, 5) != shard_seed(2012, 6)
        assert shard_seed(2012, 5) != shard_seed(2013, 5)

    def test_distinct_across_a_fleet(self):
        seeds = [shard_seed(2012, index) for index in range(64)]
        assert len(set(seeds)) == len(seeds)

    def test_fits_generator_seed_range(self):
        for index in (0, 1, 1000):
            assert 0 <= shard_seed(2012, index) < 2 ** 32


class TestPlan:
    def test_cycles_arches_and_derives_seeds(self):
        plan = build_plan(5, ["mc-ref", "ulpmc-int"], base_seed=7, **SMALL)
        assert [spec.arch for spec in plan] \
            == ["mc-ref", "ulpmc-int", "mc-ref", "ulpmc-int", "mc-ref"]
        assert [spec.seed for spec in plan] \
            == [shard_seed(7, index) for index in range(5)]
        assert [spec.shard_index for spec in plan] == list(range(5))

    def test_rejects_degenerate_plans(self):
        with pytest.raises(ConfigurationError):
            build_plan(0, ["mc-ref"])
        with pytest.raises(ConfigurationError):
            build_plan(4, [])

    def test_identity_omits_execution_details(self):
        plan = build_plan(3, ["mc-ref"], **SMALL)
        identity = plan_identity(plan, 2012)
        assert identity["runs"] == 3
        for execution_detail in ("workers", "warm", "max_retries"):
            assert execution_detail not in identity


class TestExecuteJob:
    def test_deterministic_reduction(self):
        first = execute_job(0, small_spec())
        second = execute_job(1, small_spec(), worker_id=3)
        assert first.stats_digest == second.stats_digest
        assert first.telemetry_digest == second.telemetry_digest
        assert first.windows == second.windows
        assert first.blocks_done == SMALL["n_blocks"]
        assert second.worker_id == 3

    def test_cache_stats_measure_traffic(self):
        result = execute_job(0, small_spec())
        assert set(result.cache_stats) >= {
            "block_hits", "block_misses", "program_hits",
            "program_misses", "source_compiles"}
        assert result.cache_hit_rate is None \
            or 0.0 <= result.cache_hit_rate <= 1.0

    def test_fault_hook_raises(self):
        with pytest.raises(RuntimeError, match="fault injection"):
            execute_job(0, small_spec(fault="raise"))


class TestScheduler:
    def test_rejects_bad_pool_parameters(self):
        with pytest.raises(ConfigurationError):
            FarmScheduler(workers=0)
        with pytest.raises(ConfigurationError):
            FarmScheduler(workers=1, max_retries=-1)

    def test_cancel_withdraws_pending_only(self):
        with FarmScheduler(workers=1) as farm:
            first = farm.submit(small_spec())
            second = farm.submit(small_spec(shard_index=1,
                                            seed=shard_seed(2012, 1)))
            assert farm.cancel(second)
            assert farm.jobs[second].state is JobState.CANCELLED
            assert not farm.cancel(second)  # already terminal
            jobs = farm.run_until_complete()
            assert farm.jobs[first].state is JobState.DONE
        assert [job.state for job in jobs] \
            == [JobState.DONE, JobState.CANCELLED]

    def test_reported_failure_retries_then_fails(self):
        with FarmScheduler(workers=1, max_retries=1) as farm:
            job_id = farm.submit(small_spec(fault="raise"))
            farm.run_until_complete()
            job = farm.jobs[job_id]
        assert job.state is JobState.FAILED
        assert job.attempts == 2  # first try + one retry
        assert "fault injection" in job.error

    def test_worker_crash_respawns_pool(self):
        with FarmScheduler(workers=1, max_retries=0) as farm:
            crash = farm.submit(small_spec(fault="exit"))
            farm.run_until_complete()
            assert farm.jobs[crash].state is JobState.FAILED
            assert farm.crashes == 1
            # the replacement worker must be able to run real jobs
            follow_up = farm.submit(small_spec())
            farm.run_until_complete()
            assert farm.jobs[follow_up].state is JobState.DONE

    def test_listener_error_is_not_a_worker_crash(self):
        """An error a listener raises (a checkpoint that cannot be
        written) reaches the caller; the healthy worker that sent the
        result is neither counted as crashed nor replaced."""
        def unwritable(job):
            raise OSError("checkpoint directory is a file")

        with FarmScheduler(workers=1) as farm:
            farm.listeners.append(unwritable)
            worker = farm._workers[0]
            job_id = farm.submit(small_spec())
            with pytest.raises(OSError, match="checkpoint"):
                farm.run_until_complete()
            assert farm.jobs[job_id].state is JobState.DONE
            assert farm.crashes == 0
            assert farm._workers == [worker]

    def test_fail_fast_cancels_the_queue(self):
        with FarmScheduler(workers=1, max_retries=0,
                           fail_fast=True) as farm:
            farm.submit(small_spec(fault="raise"))
            queued = [farm.submit(small_spec(shard_index=index,
                                             seed=shard_seed(2012, index)))
                      for index in (1, 2)]
            farm.run_until_complete()
            states = [farm.jobs[job_id].state for job_id in queued]
        assert states.count(JobState.CANCELLED) >= 1
        assert JobState.FAILED not in states

    def test_submit_after_shutdown_rejected(self):
        farm = FarmScheduler(workers=1)
        farm.shutdown()
        farm.shutdown()  # idempotent
        with pytest.raises(ConfigurationError):
            farm.submit(small_spec())


class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def plan(self):
        return build_plan(4, ["mc-ref", "ulpmc-int"], **SMALL)

    @pytest.fixture(scope="class")
    def serial(self, plan):
        return run_farm(plan, workers=1)

    def test_worker_count_and_order_do_not_change_bits(self, plan,
                                                       serial):
        shuffled = list(plan)
        random.Random(13).shuffle(shuffled)
        parallel = run_farm(shuffled, workers=2)
        assert serial.ok and parallel.ok
        by_shard_serial = {r.shard_index: r for r in serial.completed()}
        by_shard_parallel = {r.shard_index: r
                             for r in parallel.completed()}
        assert set(by_shard_serial) == set(by_shard_parallel)
        for index, result in by_shard_serial.items():
            other = by_shard_parallel[index]
            assert result.stats_digest == other.stats_digest
            assert result.telemetry_digest == other.telemetry_digest
            assert result.windows == other.windows
        assert serial.digest() == parallel.digest()

    def test_cold_caches_do_not_change_bits(self, plan, serial):
        cold = run_farm(plan, workers=1, warm=False)
        assert cold.ok
        assert cold.digest() == serial.digest()

    def test_fleet_digest_is_order_independent(self, serial):
        results = serial.completed()
        assert fleet_digest(results) \
            == fleet_digest(list(reversed(results)))

    def test_fleet_summary_shape(self, serial):
        summary = serial.fleet_summary()
        assert summary["completed"] == summary["runs"] == 4
        assert summary["failed"] == summary["cancelled"] == 0
        assert summary["blocks_done"] == 4 * SMALL["n_blocks"]
        assert set(summary["per_arch"]) == {"mc-ref", "ulpmc-int"}
        assert set(summary["cycles_per_block"]) \
            == {"p50", "p99", "worst", "mean"}
        cache = summary["shared_cache"]
        assert cache["hits"] + cache["misses"] == cache["lookups"]
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert 0.0 < summary["parallel_efficiency"]

    def test_merged_windows_cover_every_shard(self, serial):
        merged = serial.merged_windows()
        per_run = [len(result.windows) for result in serial.completed()]
        assert len(merged) == max(per_run)
        assert [window.index for window in merged] \
            == list(range(len(merged)))

    def test_manifest_records(self, serial, tmp_path):
        write_fleet_manifests(serial, tmp_path)
        records = read_manifests(tmp_path)
        farm_records = [r for r in records if r["kind"] == "farm"]
        fleet_records = [r for r in records if r["kind"] == "fleet"]
        assert len(farm_records) == 4
        assert len(fleet_records) == 1
        by_shard = {r.shard_index: r for r in serial.completed()}
        for record in farm_records:
            result = by_shard[record["extra"]["shard_index"]]
            assert record["stats_digest"] == result.stats_digest
            assert record["arch"] == result.arch
            assert record["telemetry"]["digest"] \
                == result.telemetry_digest
            assert "cache_stats" in record["extra"]
        fleet_record = fleet_records[0]
        assert fleet_record["stats_digest"] == serial.digest()
        assert fleet_record["config"] \
            == plan_identity(serial.plan, serial.base_seed)
        assert fleet_record["extra"]["fleet"]["completed"] == 4


class TestRunFarmValidation:
    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError):
            run_farm([], workers=1)

    def test_on_job_progress_callback(self):
        plan = build_plan(2, ["mc-ref"], **SMALL)
        seen = []
        fleet = run_farm(plan, workers=1,
                         on_job=lambda job, done, total:
                         seen.append((job.spec.shard_index, done, total)))
        assert fleet.ok
        assert [done for _, done, _ in seen] == [1, 2]
        assert all(total == 2 for _, _, total in seen)

    def test_respec_overrides_fields(self):
        spec = small_spec()
        assert respec(spec, fault="raise").fault == "raise"
        assert respec(spec, fault="raise").seed == spec.seed
