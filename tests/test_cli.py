"""Command-line driver: legacy experiment interface and the
``trace``/``profile`` observability subcommands."""

import json

import pytest

from repro.cli import main


class TestExperiment:
    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_single_experiment_text(self, capsys):
        assert main(["table1", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "Area of the architectures" in out
        assert "paper" in out

    def test_csv_output(self, capsys):
        assert main(["table1", "--csv", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("component,")

    def test_output_directory(self, tmp_path, capsys):
        assert main(["table1", "--output", str(tmp_path / "results"),
                     "--no-manifest"]) == 0
        csv_file = tmp_path / "results" / "table1.csv"
        assert csv_file.exists()
        assert csv_file.read_text().startswith("component,")

    def test_explicit_subcommand_word(self, tmp_path, capsys):
        """``repro experiment table1`` == ``repro-experiment table1``."""
        assert main(["experiment", "table1",
                     "--runs-dir", str(tmp_path)]) == 0
        assert "Area of the architectures" in capsys.readouterr().out

    def test_manifest_written(self, tmp_path, capsys):
        from repro.obs import read_manifests
        assert main(["table1", "--runs-dir", str(tmp_path)]) == 0
        records = read_manifests(directory=tmp_path)
        assert len(records) == 1
        assert records[0]["kind"] == "experiment"
        assert records[0]["name"] == "table1"
        assert records[0]["stats_digest"]


class TestTrace:
    def test_trace_single_arch(self, tmp_path, capsys):
        from repro.obs import read_manifests
        assert main(["trace", "--arch", "ulpmc-bank", "--samples", "64",
                     "--measurements", "32",
                     "--out-dir", str(tmp_path / "traces"),
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "ulpmc-bank:" in out and "slices" in out

        trace_file = tmp_path / "traces" / "trace-ulpmc-bank.json"
        document = json.loads(trace_file.read_text(encoding="utf-8"))
        assert document["traceEvents"]
        assert document["otherData"]["arch"] == "ulpmc-bank"

        records = read_manifests(directory=tmp_path / "runs")
        assert [record["kind"] for record in records] == ["trace"]
        assert records[0]["arch"] == "ulpmc-bank"
        assert records[0]["config_hash"]
        summary = records[0]["event_summary"]
        assert summary["sync_group_size"]["count"] \
            == summary["sim.total_cycles"] > 0
        assert records[0]["extra"]["trace_file"].endswith(
            "trace-ulpmc-bank.json")

    def test_sampled_trace_still_reconciles(self, tmp_path, capsys):
        """Sampling decimates the recorder; the metrics sink folds every
        cycle regardless, so the registry still reconciles."""
        assert main(["trace", "--arch", "ulpmc-int", "--samples", "64",
                     "--measurements", "32", "--sample", "core.retire=4",
                     "--sample", "core.stall=4", "--no-manifest",
                     "--out-dir", str(tmp_path)]) == 0
        assert "ulpmc-int:" in capsys.readouterr().out

    def test_trace_all_arches_fast_forward(self, tmp_path, capsys):
        assert main(["trace", "--samples", "64", "--measurements", "32",
                     "--no-manifest", "--out-dir", str(tmp_path)]) == 0
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"trace-mc-ref.json", "trace-ulpmc-int.json",
                         "trace-ulpmc-bank.json"}
        out = capsys.readouterr().out
        assert "fast-forward spans" in out


class TestProfile:
    def test_profile_prints_registry_and_reconciles(self, tmp_path, capsys):
        from repro.obs import read_manifests
        assert main(["profile", "--arch", "ulpmc-int", "--samples", "64",
                     "--measurements", "32", "--exact",
                     "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== ulpmc-int (exact" in out
        assert "sync_group_size" in out
        assert "conflict_burst_length" in out
        assert "sim.total_cycles" in out
        assert "probe/stats reconciliation ok" in out

        records = read_manifests(directory=tmp_path)
        assert [record["kind"] for record in records] == ["profile"]
        summary = records[0]["event_summary"]
        assert summary["sync_group_size"]["count"] \
            == summary["sim.total_cycles"]
        assert summary["im_broadcast_width"]["count"] \
            == summary["sim.im_broadcasts"]

    def test_profile_fast_forward(self, capsys):
        assert main(["profile", "--arch", "mc-ref", "--samples", "64",
                     "--measurements", "32", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "== mc-ref (fast-forward" in out
        assert "probe/stats reconciliation ok" in out

    @pytest.mark.parametrize("option", ["--unbatched",
                                        "--sample=core.retire=4"])
    def test_delivery_options_are_gone(self, option, capsys):
        """The run loops fold the registry, so there is no delivery
        mode to pick and nothing to decimate."""
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", option, "--no-manifest"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert any(line.startswith("repro profile: error: ")
                   for line in err.splitlines()), err


class TestWatch:
    ARGS = ["watch", "--arch", "mc-ref", "--samples", "64",
            "--measurements", "32", "--window", "1024"]

    def test_json_lines_stream_and_manifest(self, tmp_path, capsys):
        assert main(self.ARGS + ["--json-lines", "--repeat", "1",
                                 "--runs-dir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        windows = [json.loads(line) for line in lines
                   if line.startswith("{")]
        assert len(windows) > 1
        assert all(w["arch"] == "mc-ref" for w in windows)
        assert [w["index"] for w in windows] == list(range(len(windows)))
        assert [w["final"] for w in windows[:-1]] == \
            [False] * (len(windows) - 1)
        assert windows[-1]["final"] is True
        assert all(w["end_cycle"] % 1024 == 0 for w in windows[:-1])
        assert all("ipc" in w and "stall_rate" in w for w in windows)
        assert lines[-1].startswith(f"mc-ref: {len(windows)} windows")

        record = json.loads(
            (tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
        assert record["kind"] == "watch"
        assert record["schema"] == "repro-manifest/2"
        assert record["wall_time_s"] > 0
        telemetry = record["telemetry"]
        assert telemetry["schema"] == "telemetry/1"
        assert telemetry["window_cycles"] == 1024
        assert telemetry["windows"] == len(windows)
        assert record["extra"]["deadline_misses"] == 0

    def test_dashboard_mode(self, tmp_path, capsys):
        assert main(self.ARGS + ["--repeat", "2", "--interval", "0",
                                 "--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "repro watch — mc-ref [fast-forward]" in out
        assert "lockstep_fraction" in out
        assert "deadline_misses=0" in out          # streaming footer
        assert "2 block(s)" in out

    def test_speedup_vs_exact_recorded(self, tmp_path, capsys):
        assert main(self.ARGS + ["--json-lines", "--repeat", "1",
                                 "--speedup-vs-exact",
                                 "--runs-dir", str(tmp_path)]) == 0
        record = json.loads(
            (tmp_path / "manifest.jsonl").read_text().splitlines()[-1])
        assert record["speedup_vs_exact"] > 0

    def test_repeat_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["watch", "--repeat", "0"])

    def test_unbatched_is_gone(self, capsys):
        """Windows read counter snapshots, so there is no delivery mode
        left to choose."""
        with pytest.raises(SystemExit) as excinfo:
            main(["watch", "--unbatched", "--no-manifest"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert any(line.startswith("repro watch: error: ")
                   for line in err.splitlines()), err

    def test_json_lines_flushed_after_every_line(self, monkeypatch,
                                                 tmp_path):
        """A downstream consumer reading the pipe must see each JSON
        line as soon as it is produced, not when the process exits."""
        import sys

        recorder = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", recorder)
        assert main(self.ARGS + ["--json-lines", "--repeat", "1",
                                 "--runs-dir", str(tmp_path)]) == 0
        unflushed_line = False
        for kind, text in recorder.events:
            if kind == "flush":
                unflushed_line = False
            elif "\n" in text:
                assert not unflushed_line, \
                    "a line was emitted before the previous one flushed"
                unflushed_line = True
        assert not unflushed_line, "final line never flushed"
        emitted = "".join(text for kind, text in recorder.events
                          if kind == "write")
        assert sum(1 for line in emitted.splitlines()
                   if line.startswith("{")) > 1


class _RecordingStdout:
    """Stdout stand-in that records the write/flush interleaving."""

    def __init__(self):
        self.events = []

    def write(self, text):
        self.events.append(("write", text))
        return len(text)

    def flush(self):
        self.events.append(("flush", ""))

    def isatty(self):
        return False


class TestFarm:
    ARGS = ["farm", "--runs", "3", "--workers", "2", "--samples", "64",
            "--measurements", "32", "--blocks", "1", "--window", "4096",
            "--arch", "all"]

    def test_json_stream_and_manifest(self, tmp_path, capsys):
        assert main(self.ARGS + ["--json",
                                 "--runs-dir", str(tmp_path)]) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        jobs = [line for line in lines if line["type"] == "job"]
        fleets = [line for line in lines if line["type"] == "fleet"]
        assert len(jobs) == 3 and len(fleets) == 1
        assert all(job["state"] == "done" for job in jobs)
        assert sorted(job["shard_index"] for job in jobs) == [0, 1, 2]
        assert [job["done"] for job in jobs] == [1, 2, 3]
        summary = fleets[0]["summary"]
        assert summary["completed"] == 3 and summary["failed"] == 0

        records = [json.loads(line) for line in
                   (tmp_path / "manifest.jsonl").read_text().splitlines()]
        farm_records = [r for r in records if r["kind"] == "farm"]
        fleet_records = [r for r in records if r["kind"] == "fleet"]
        assert len(farm_records) == 3 and len(fleet_records) == 1
        assert fleet_records[0]["stats_digest"] == fleets[0]["digest"]
        assert fleet_records[0]["schema"] == "repro-manifest/2"
        assert {r["arch"] for r in farm_records} \
            == {"mc-ref", "ulpmc-int", "ulpmc-bank"}

    def test_table_mode(self, tmp_path, capsys):
        assert main(self.ARGS + ["--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "farm fleet — 3/3 runs ok" in out
        assert "fleet digest: " in out
        assert "per-arch" not in out  # table uses rows, not the raw dict

    def test_digest_independent_of_worker_count(self, tmp_path, capsys):
        digests = []
        for workers in ("1", "2"):
            args = list(self.ARGS)
            args[args.index("--workers") + 1] = workers
            assert main(args + ["--runs", "2", "--json",
                                "--no-manifest"]) == 0
            lines = [json.loads(line) for line in
                     capsys.readouterr().out.splitlines()
                     if line.startswith("{")]
            digests.append(next(line["digest"] for line in lines
                                if line["type"] == "fleet"))
        assert digests[0] == digests[1]

    def test_degenerate_geometry_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["farm", "--runs", "0"])
        with pytest.raises(SystemExit):
            main(["farm", "--workers", "0"])


class TestFaults:
    ARGS = ["faults", "--trials", "4", "--workers", "2",
            "--samples", "64", "--measurements", "32"]

    def test_json_stream_manifest_and_resume(self, tmp_path, capsys):
        """Cold campaign writes its manifest record; --resume reruns
        recompute nothing and reproduce the digest bit-for-bit."""
        args = self.ARGS + ["--json", "--resume",
                            "--runs-dir", str(tmp_path)]
        assert main(args) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        trials = [line for line in lines if line["type"] == "trial"]
        campaigns = [line for line in lines
                     if line["type"] == "campaign"]
        assert len(trials) == 4 and len(campaigns) == 1
        assert all(trial["state"] == "done" for trial in trials)
        assert sorted(trial["trial"] for trial in trials) == [0, 1, 2, 3]
        cold = campaigns[0]
        assert cold["resumed"] == 0
        assert sum(cold["outcomes"].values()) == 4

        records = [json.loads(line) for line in
                   (tmp_path / "manifest.jsonl").read_text().splitlines()]
        fault_records = [r for r in records if r["kind"] == "fault"]
        assert len(fault_records) == 1
        assert fault_records[0]["stats_digest"] == cold["digest"]
        assert fault_records[0]["schema"] == "repro-manifest/2"
        assert len(fault_records[0]["extra"]["trials"]) == 4

        # Second invocation: every trial satisfied from the checkpoint.
        assert main(args) == 0
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        resumed = next(line for line in lines
                       if line["type"] == "campaign")
        assert resumed["resumed"] == 4
        assert all(line["resumed"] for line in lines
                   if line["type"] == "trial")
        assert resumed["digest"] == cold["digest"]

        # The gate applies to resumed runs too: seed 2012 produces at
        # least one SDC trial, so --max-sdc 0.0 fails instantly.
        assert main(args + ["--max-sdc", "0.0"]) == 1
        assert "exceeds --max-sdc" in capsys.readouterr().err

    def test_table_mode(self, tmp_path, capsys):
        assert main(self.ARGS + ["--runs-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out
        assert "campaign digest: " in out
        for outcome in ("masked", "sdc", "detected", "hang"):
            assert outcome in out


class TestEngineFlag:
    """``--exact`` is the one engine flag; the fast engine is the
    default, and every simulating subcommand's manifest records which
    one ran."""

    SMALL = ["--samples", "64", "--measurements", "32"]
    #: The cheapest manifest-writing invocation of each subcommand.
    COMMANDS = {
        "experiment": ["experiment", "table1"],
        "trace": ["trace", "--arch", "mc-ref", *SMALL],
        "profile": ["profile", "--arch", "mc-ref", *SMALL],
        "watch": ["watch", "--arch", "mc-ref", "--repeat", "1",
                  "--json-lines", *SMALL],
        "farm": ["farm", "--runs", "1", "--workers", "1", "--arch",
                 "mc-ref", "--blocks", "1", *SMALL],
        "dse": ["dse", "--arch", "mc-ref", "--cores", "8", "--im-banks",
                "8", "--dm-banks", "16", "--mappings", "private-lut",
                "--voltages", "1.2", "--no-escalate", "--json"],
        "faults": ["faults", "--trials", "1", "--workers", "1", *SMALL],
    }

    @pytest.mark.parametrize("argv", [
        ["experiment", "table1"], ["trace"], ["profile"], ["watch"]],
        ids=lambda argv: argv[0])
    def test_fast_forward_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--fast-forward", "--no-manifest"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --fast-forward" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("exact", [False, True],
                             ids=["default", "exact"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_manifest_records_engine(self, command, exact, tmp_path,
                                     capsys):
        argv = self.COMMANDS[command] + ["--runs-dir", str(tmp_path)]
        if command == "trace":
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv + (["--exact"] if exact else [])) == 0
        records = [json.loads(line) for line in
                   (tmp_path / "manifest.jsonl").read_text().splitlines()]
        # A fleet record keys its group on the engine (config); every
        # other record carries it in ``extra``.
        engines = [record["extra"]["fast_forward"]
                   if record["kind"] != "fleet"
                   else record["config"]["fast_forward"]
                   for record in records]
        assert engines and engines == [not exact] * len(records)


class TestExitCodes:
    """The uniform contract: 0 success, 1 gate failure, 2 usage or
    configuration error (one-line message, no traceback)."""

    def test_repro_error_maps_to_exit_2(self, capsys):
        assert main(["faults", "--trials", "0", "--no-manifest"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["trace", "--samples", "0"],
        ["trace", "--samples", "-3"],
        ["profile", "--samples", "0"],
        ["watch", "--samples", "0"],
        ["watch", "--samples", "-1"],
        ["farm", "--samples", "0"],
        ["faults", "--samples", "0"],
        ["farm", "--window", "0"],
        ["farm", "--blocks", "0"],
        ["farm", "--clock-hz", "0"],
        ["faults", "--watchdog", "-1"],
        ["faults", "--max-cycles", "-5"],
    ], ids=" ".join)
    def test_invalid_size_is_exit_2(self, argv, capsys, monkeypatch):
        from repro.farm import jobs

        def no_worker(*args, **kwargs):
            pytest.fail("a farm worker started before validation")

        monkeypatch.setattr(jobs, "_Worker", no_worker)
        assert main(argv + ["--no-manifest"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["experiment", "table1", "--output", "{file}/csv"],
        ["experiment", "table1", "--runs-dir", "{file}"],
        ["profile", "--arch", "mc-ref", "--samples", "32",
         "--measurements", "16", "--runs-dir", "{file}"],
        ["trace", "--arch", "mc-ref", "--samples", "32",
         "--measurements", "16", "--out-dir", "{file}", "--no-manifest"],
        ["watch", "--arch", "mc-ref", "--samples", "32",
         "--measurements", "16", "--repeat", "1", "--runs-dir", "{file}"],
        ["dse", "--arch", "mc-ref", "--cores", "2", "--dm-banks", "16",
         "--mappings", "private-lut", "--voltages", "1.2", "--no-escalate",
         "--no-cache", "--front-out", "{file}/front.json",
         "--no-manifest"],
        ["dse", "--arch", "mc-ref", "--cores", "2", "--dm-banks", "16",
         "--mappings", "private-lut", "--voltages", "1.2", "--no-escalate",
         "--cache-dir", "{file}/cache", "--no-manifest"],
        ["regress", "--runs-dir", "{tmp}", "--output", "{file}/report"],
        ["farm", "--runs", "2", "--workers", "1", "--arch", "mc-ref",
         "--samples", "32", "--measurements", "16", "--blocks", "1",
         "--checkpoint", "{file}/c.jsonl", "--no-manifest"],
        ["faults", "--trials", "2", "--workers", "1", "--samples", "32",
         "--measurements", "16", "--checkpoint", "{file}/c.jsonl",
         "--no-manifest"],
    ], ids=["experiment --output", "experiment --runs-dir",
            "profile --runs-dir", "trace --out-dir", "watch --runs-dir",
            "dse --front-out", "dse --cache-dir", "regress --output",
            "farm --checkpoint", "faults --checkpoint"])
    def test_unwritable_output_path_is_exit_2(self, argv, tmp_path,
                                              capsys, monkeypatch):
        """An output path under a regular file cannot be created, and
        the command says so before it simulates or starts a worker."""
        from repro.farm import jobs
        from repro.platform import MultiCoreSystem

        def no_work(*args, **kwargs):
            pytest.fail("simulated or started a worker before creating "
                        "its output locations")

        monkeypatch.setattr(MultiCoreSystem, "run", no_work)
        monkeypatch.setattr(jobs, "_Worker", no_work)
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [arg.format(file=blocker, tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(blocker) in err

    def test_missing_regress_runs_manifest_is_exit_2(self, tmp_path,
                                                     capsys):
        """A runs directory without a manifest has nothing to judge:
        it is an error, not a vacuous PASS."""
        assert main(["regress", "--runs-dir", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "run manifest not found" in err

    def test_missing_regress_baseline_is_exit_2(self, tmp_path, capsys):
        assert main(["regress", "--runs-dir", str(tmp_path),
                     "--baseline", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "baseline manifest not found" in err
        assert "Traceback" not in err

    def test_bad_arch_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["farm", "--arch", "bogus"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--arch", "bogus"])
        assert excinfo.value.code == 2
