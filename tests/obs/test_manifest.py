"""Run manifests: digests, record schema and JSONL round-trip."""

import json

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import (config_digest, git_revision, manifest_record,
                       read_manifests, stats_digest, write_manifest)
from repro.obs.manifest import SCHEMA, SCHEMA_VERSION, schema_version
from repro.platform import build_platform

REQUIRED_FIELDS = {
    "schema", "kind", "name", "arch", "config", "config_hash", "git_rev",
    "stats_digest", "stats_summary", "event_summary", "telemetry",
    "wall_time_s", "speedup_vs_exact", "created", "extra",
}


@pytest.fixture(scope="module")
def run():
    built = build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                          huffman_private=True))
    system = build_platform("ulpmc-bank", fast_forward=False)
    result = system.run(built.benchmark)
    return system, result


class TestDigests:
    def test_config_digest_is_stable(self, run):
        system, _ = run
        assert config_digest(system.config) == config_digest(system.config)
        assert config_digest(build_platform("mc-ref").config) \
            != config_digest(system.config)

    def test_stats_digest_tracks_content(self, run):
        _, result = run
        digest = stats_digest(result.stats)
        assert len(digest) == 64 and int(digest, 16) >= 0
        import dataclasses
        mutated = dataclasses.replace(result.stats,
                                      total_cycles=result.stats.total_cycles
                                      + 1)
        assert stats_digest(mutated) != digest

    def test_git_revision_in_checkout(self):
        rev = git_revision()
        assert rev == "unknown" or len(rev) == 40

    def test_git_revision_outside_checkout(self, tmp_path):
        assert git_revision(cwd=tmp_path) == "unknown"


class TestRecord:
    def test_schema_fields_always_present(self):
        record = manifest_record("benchmark", "smoke")
        assert set(record) == REQUIRED_FIELDS
        assert record["schema"] == SCHEMA
        assert record["arch"] is None
        assert record["stats_digest"] is None
        assert record["telemetry"] is None
        assert record["speedup_vs_exact"] is None
        assert record["extra"] == {}

    def test_schema_version_parsing(self):
        assert schema_version(manifest_record("benchmark", "x")) \
            == SCHEMA_VERSION
        assert schema_version({"kind": "trace"}) == 1  # v1: no tag
        assert schema_version({"schema": "repro-manifest/99"}) == 99
        assert schema_version({"schema": "not-a-manifest"}) is None
        assert schema_version({"schema": 3}) is None

    def test_telemetry_block_round_trips(self, run):
        from repro.obs import WindowedAggregator

        built = build_benchmark(BenchmarkSpec(n_samples=64,
                                              n_measurements=32,
                                              huffman_private=True))
        system = build_platform("ulpmc-bank", fast_forward=True)
        aggregator = WindowedAggregator.attach(system.probe_bus(),
                                               window_cycles=1024)
        system.run(built.benchmark)
        aggregator.detach()
        record = manifest_record(
            "watch", "ecg", arch="ulpmc-bank",
            telemetry=aggregator.telemetry_block(),
            wall_time_s=0.5, speedup_vs_exact=3.0)
        json.dumps(record)
        block = record["telemetry"]
        assert block["schema"] == "telemetry/1"
        assert block["windows"] == len(aggregator.windows) > 0
        assert block["digest"] == aggregator.digest()
        assert len(block["window_digests"]) == block["windows"]

    def test_record_from_stats(self, run):
        system, result = run
        record = manifest_record(
            "trace", "ecg", arch="ulpmc-bank", config=system.config,
            stats=result.stats, wall_time_s=1.25,
            extra={"fast_forward": False})
        assert record["config_hash"] == config_digest(system.config)
        assert record["stats_digest"] == stats_digest(result.stats)
        assert record["stats_summary"]["total_cycles"] \
            == result.stats.total_cycles
        assert record["extra"] == {"fast_forward": False}
        # The whole record must be JSON-serialisable as-is.
        json.dumps(record)

    def test_payload_digest_without_stats(self):
        record = manifest_record("experiment", "table1", payload="a,b\n1,2")
        assert record["stats_digest"] is not None
        assert record["stats_summary"] is None


class TestJsonl:
    def test_append_and_read_round_trip(self, tmp_path, run):
        system, result = run
        directory = tmp_path / "runs"
        first = manifest_record("profile", "ecg", arch="ulpmc-bank",
                                stats=result.stats)
        second = manifest_record("benchmark", "overhead",
                                 payload=[{"idle_overhead": 0.01}])
        path = write_manifest(first, directory=directory)
        assert write_manifest(second, directory=directory) == path
        records = read_manifests(directory=directory)
        assert [record["kind"] for record in records] \
            == ["profile", "benchmark"]
        assert records[0]["stats_digest"] == stats_digest(result.stats)

    def test_read_missing_manifest(self, tmp_path):
        assert read_manifests(directory=tmp_path / "nowhere") == []

    def test_identical_runs_share_digests(self, run):
        """The reproducibility contract the manifest trail exists for."""
        system, result = run
        built = build_benchmark(BenchmarkSpec(n_samples=64,
                                              n_measurements=32,
                                              huffman_private=True))
        again = build_platform("ulpmc-bank", fast_forward=True) \
            .run(built.benchmark)
        assert stats_digest(again.stats) == stats_digest(result.stats)


class TestPrecomputedDigests:
    def test_digest_value_carried_verbatim(self):
        record = manifest_record("farm", "shard", arch="mc-ref",
                                 stats_digest_value="abc123",
                                 stats_summary={"total_cycles": 7})
        assert record["stats_digest"] == "abc123"
        assert record["stats_summary"] == {"total_cycles": 7}

    def test_digest_value_excludes_stats_and_payload(self, run):
        system, result = run
        with pytest.raises(ValueError):
            manifest_record("farm", "shard", stats=result.stats,
                            stats_digest_value="abc123")
        with pytest.raises(ValueError):
            manifest_record("farm", "shard", payload="x",
                            stats_digest_value="abc123")


def _hammer(directory, writer: int, count: int, barrier) -> None:
    barrier.wait()
    for sequence in range(count):
        write_manifest(manifest_record(
            "farm", f"writer{writer}-rec{sequence}",
            payload={"writer": writer, "sequence": sequence}),
            directory=directory)


class TestConcurrentAppends:
    def test_parallel_writers_never_interleave_lines(self, tmp_path):
        """N processes hammering one manifest must yield N*COUNT whole
        lines — the single-``os.write`` append contract the farm's
        result writer relies on."""
        import json as json_module
        import multiprocessing

        writers, count = 4, 25
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        barrier = ctx.Barrier(writers)
        processes = [ctx.Process(target=_hammer,
                                 args=(tmp_path, writer, count, barrier))
                     for writer in range(writers)]
        for process in processes:
            process.start()
        for process in processes:
            process.join(60)
            assert process.exitcode == 0
        lines = (tmp_path / "manifest.jsonl").read_text() \
            .splitlines()
        assert len(lines) == writers * count
        seen = set()
        for line in lines:
            record = json_module.loads(line)  # every line parses whole
            seen.add(record["name"])
        assert seen == {f"writer{w}-rec{s}"
                        for w in range(writers) for s in range(count)}
        assert len(read_manifests(directory=tmp_path)) == writers * count
