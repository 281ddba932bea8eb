"""The sweep driver: caching, budget, determinism, artifacts, CLI.

One module-scoped cold sweep (4 points, 2 escalated families) feeds
most assertions; the rerun tests replay against its cache directory,
which is exactly how a user-visible ``repro dse`` rerun behaves.
"""

import json
import pathlib

import pytest

from repro.cli import main as cli_main
from repro.dse import (build_space, dse_manifest_record, run_dse,
                       write_artifact)
from repro.dse.driver import ESCALATION_BUDGET, FRONT_SCHEMA
from repro.obs.manifest import schema_version
from repro.obs.regress import load_records

AXES = dict(arches=("mc-ref", "ulpmc-int"), cores=(8,), im_banks=(8,),
            dm_banks=(16,), mappings=("private-lut",),
            voltages=(1.2, 0.8))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("dse-cache")


@pytest.fixture(scope="module")
def points():
    built, rejected = build_space(**AXES)
    assert not rejected
    return built


@pytest.fixture(scope="module")
def cold(points, cache_dir):
    # Explicit budget: the default 15% of a 4-point toy space rounds
    # down to a single escalation and would truncate the front.
    return run_dse(points, cache_dir=cache_dir, workers=1,
                   max_escalations=2)


def test_cold_sweep_evaluates_everything(cold, points):
    counters = cold.counters
    assert counters["points"] == len(points) == 4
    assert counters["analytical_evaluated"] == 4
    assert counters["analytical_cache_hits"] == 0
    assert counters["structural_families"] == 2


def test_escalation_covers_the_front_within_budget(cold):
    counters = cold.counters
    assert counters["escalations_run"] + \
        counters["escalation_cache_hits"] == counters["front_families"]
    assert counters["escalations_selected"] <= counters["escalation_budget"]
    assert set(cold.escalations) \
        <= {record["structural_hash"] for record in cold.records}
    for esc in cold.escalations.values():
        assert esc["total_cycles"] > 0
        assert esc["sim_digest"]


def test_cached_rerun_computes_nothing(cold, points, cache_dir):
    rerun = run_dse(points, cache_dir=cache_dir, workers=1,
                    max_escalations=2)
    counters = rerun.counters
    assert counters["analytical_evaluated"] == 0
    assert counters["escalations_run"] == 0
    assert counters["escalation_cache_hits"] == \
        counters["escalations_selected"]
    assert counters["cache"]["writes"] == 0
    assert rerun.digest() == cold.digest()


def test_digest_excludes_run_dependent_noise(cold):
    payload = cold.front_payload()
    flattened = json.dumps(payload)
    assert "wall_time" not in flattened
    assert "cache_hits" not in flattened
    assert payload["schema"] == FRONT_SCHEMA


def test_default_budget_is_15_percent(points):
    result = run_dse(points, cache_dir=None, escalate=False)
    assert result.counters["escalation_budget"] \
        == max(1, int(ESCALATION_BUDGET * len(points)))


def test_unknown_escalation_policy_raises(points):
    with pytest.raises(ValueError, match="policy"):
        run_dse(points, escalate_policy="everything")


def test_negative_escalation_budget_rejected(points, tmp_path, capsys):
    """A negative budget used to slice the families list from the end
    (``[:-1]`` escalates all but the last) and pass silently."""
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="escalation budget"):
        run_dse(points, cache_dir=None, max_escalations=-1)
    assert cli_main(["dse", "--arch", "mc-ref", "--cores", "8",
                     "--max-escalations", "-1",
                     "--runs-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "manifest.jsonl").exists()


def test_artifact_round_trips(cold, tmp_path):
    path = write_artifact(cold, tmp_path / "front" / "pareto_front.json")
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema"] == FRONT_SCHEMA
    assert document["digest"] == cold.digest()
    assert len(document["front"]) == len(cold.front)
    for entry in document["front"]:
        assert set(entry) == {"point", "metrics", "objectives"}
    assert document["counters"]["points"] == cold.counters["points"]


def test_manifest_record_shape(cold):
    record = dse_manifest_record(cold)
    assert record["kind"] == "dse"
    assert record["stats_digest"] == cold.digest()
    assert schema_version(record) is not None
    assert record["stats_summary"]["points"] == cold.counters["points"]
    assert record["extra"]["fidelity"] == cold.fidelity


def test_cli_runs_writes_artifact_and_manifest(tmp_path, capsys):
    runs = tmp_path / "runs"
    status = cli_main([
        "dse", "--arch", "ulpmc-int", "--cores", "8", "--im-banks", "8",
        "--dm-banks", "16", "--mappings", "private-lut",
        "--voltages", "1.2,0.8", "--max-escalations", "1",
        "--runs-dir", str(runs), "--json"])
    assert status == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    summary = lines[-1]
    assert summary["type"] == "dse"
    assert summary["counters"]["escalations_run"] <= 1
    front_path = pathlib.Path(summary["front_out"])
    assert front_path.is_file()
    records, skipped = load_records(runs)
    assert not skipped
    assert [record["kind"] for record in records] == ["dse"]
    assert records[0]["stats_digest"] == summary["digest"]


def test_cli_rejects_empty_space(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["dse", "--cores", "3", "--runs-dir", str(tmp_path)])


def test_default_space_front_keeps_the_paper_designs():
    """Acceptance bar: sweeping the full default space (>= 200 points)
    analytically, both paper design points survive on the front."""
    from repro.dse import seed_points

    default_points, _ = build_space()
    assert len(default_points) >= 200
    result = run_dse(default_points, cache_dir=None, escalate=False)
    front = {tuple(sorted(record["point"].items()))
             for record in result.front}
    for seed in seed_points():
        assert tuple(sorted(seed.payload().items())) in front
    assert result.counters["front_size"] < len(default_points)
