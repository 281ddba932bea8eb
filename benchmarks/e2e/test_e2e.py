"""Self-tests of the end-to-end benchmark harness, at the smoke size.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e import harness, workloads
from repro.farm import FarmJobSpec

NAMES = [entry["name"] for entry in harness.BENCH["workloads"]]


def run_command(*args, json_path=None):
    """The ``BENCHMARK.json`` command, at the smoke size."""
    command = [sys.executable, str(harness.RUN_SCRIPT), *args, "--smoke",
               "--seconds", "0"]
    if json_path is not None:
        command += ["--json", str(json_path)]
    proc = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=120)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=NAMES)
def traced(request, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / f"{request.param}.json"
    proc, result = run_command("--workload", request.param, "--trace", "1",
                               json_path=path)
    record = json.loads(path.read_text(encoding="utf-8"))
    return request.param, proc, result, record


def assert_declared(metrics: dict, declared: list) -> None:
    assert list(metrics) == [entry["name"] for entry in declared]
    for entry in declared:
        body = metrics[entry["name"]]
        assert body["unit"] == entry["unit"]
        assert isinstance(body["value"], (int, float))


def test_bench_json_lists_the_workloads():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


def test_traced_run_emits_every_per_layer_metric(traced):
    name, proc, result, record = traced
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert_declared(result["metrics"], harness.BENCH["per_layer"])
    assert record["expected"] == "match", record["pinned"]
    assert record["overhead"]["untraced_jobs_per_s"] > 0
    assert (harness.ROOT / record["trace_file"]).name == f"trace-{name}.json"


def test_spans_nest_and_self_times_partition_wall(traced):
    _, _, _, record = traced
    events = json.loads((harness.ROOT / record["trace_file"])
                        .read_text(encoding="utf-8"))["traceEvents"]
    own = [event["dur"] for event in events]
    tolerance = 1.0  # microseconds: timestamps are rounded to ns
    for event in events:
        parent = event["args"]["parent"]
        if parent is None:
            continue
        outer = events[parent]
        assert outer["ts"] - tolerance <= event["ts"]
        assert event["ts"] + event["dur"] \
            <= outer["ts"] + outer["dur"] + tolerance
        own[parent] -= event["dur"]
    assert min(own) >= -tolerance
    traced_wall = sum(record["trace_walls_s"].values()) * 1e6
    assert sum(own) <= traced_wall + tolerance
    assert sum(own) >= 0.95 * traced_wall


def test_untraced_run_emits_every_end_to_end_metric():
    proc, result = run_command("--workload", "lockstep", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["attempted"] >= 1
    assert_declared(result["metrics"], harness.BENCH["end_to_end"])
    assert all(body["value"] > 0 for body in result["metrics"].values())


def test_failing_farm_job_raises_failed_frac(monkeypatch):
    plan = workloads.FleetWorkload.plan

    def with_failing_job(self, seed, size):
        jobs = plan(self, seed, size)
        return jobs + [FarmJobSpec(shard_index=len(jobs), seed=1,
                                   arch="mc-ref", n_samples=64,
                                   n_measurements=32, n_blocks=1,
                                   fault="raise")]

    monkeypatch.setattr(workloads.FleetWorkload, "plan", with_failing_job)
    record = harness.run("fleet", seed=7, seconds=0, size="smoke")
    assert 0 < record["failed_frac"] < 1
    assert not record["correct"]


def test_tampered_expected_digest_fails_every_job(monkeypatch, tmp_path):
    expected = harness.load_expected()
    entry = expected["lockstep"]["smoke"][str(harness.DEFAULT_SEED)]
    entry["stats_digest_fold"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(harness, "EXPECTED_PATH", path)
    assert harness.main(["lockstep", "--smoke", "--seconds", "0"]) == 1
    record = harness.run("lockstep", seconds=0, size="smoke")
    assert record["expected"] == "mismatch"
    assert record["failed_frac"] == 1.0


def test_seed_changes_digests_not_metric_names():
    first = harness.run("lockstep", seed=1, seconds=0, size="smoke")
    second = harness.run("lockstep", seed=2, seconds=0, size="smoke")
    assert first["correct"] and second["correct"]
    assert first["pinned"] != second["pinned"]
    assert list(first["metrics"]) == list(second["metrics"])
