"""Perfetto export: trace-event schema and slice-total exactness.

The acceptance criterion for the observability layer: a traced ECG run
on every platform produces Chrome trace-event JSON that a Perfetto-style
loader accepts, and the per-core ``run``/``stall`` slice durations sum
to exactly the per-core ``retired``/``stall_cycles`` counts of
``SimulationStats`` — in both execution modes.
"""

import json

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import TraceRecorder
from repro.platform import ARCH_NAMES, build_platform

ARCH_MODE = [(arch, fast_forward) for arch in ARCH_NAMES
             for fast_forward in (False, True)]


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


@pytest.fixture(scope="module")
def traced(built):
    """(recorder, stats) per (arch, fast_forward), traced once."""
    out = {}
    for arch, fast_forward in ARCH_MODE:
        system = build_platform(arch, fast_forward=fast_forward)
        recorder = TraceRecorder.attach(system)
        stats = system.run(built.benchmark).stats
        recorder.finish()
        out[arch, fast_forward] = (recorder, stats)
    return out


def _validate_trace_events(document):
    """Structural checks a Chrome-trace/Perfetto loader performs."""
    assert isinstance(document, dict)
    events = document["traceEvents"]
    assert isinstance(events, list) and events
    track_names = set()
    for event in events:
        assert event["ph"] in ("M", "X")
        assert isinstance(event["pid"], int)
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name",
                                     "thread_sort_index")
            assert isinstance(event["args"], dict)
            if event["name"] != "process_name":
                assert isinstance(event["tid"], int)
                track_names.add((event["pid"], event.get("tid")))
        else:
            # Complete events: non-negative integer microsecond timeline.
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], int) and event["ts"] >= 0
            assert isinstance(event["dur"], int) and event["dur"] >= 1
            assert isinstance(event["name"], str) and event["name"]
    return events


class TestSchema:
    @pytest.mark.parametrize("arch,fast_forward", ARCH_MODE)
    def test_document_is_loadable(self, arch, fast_forward, traced):
        recorder, _ = traced[arch, fast_forward]
        # Round-trip through JSON text: what ui.perfetto.dev ingests.
        document = json.loads(json.dumps(recorder.to_perfetto()))
        events = _validate_trace_events(document)
        # One named thread track per core.
        core_tracks = {event["tid"] for event in events
                       if event["ph"] == "M"
                       and event["name"] == "thread_name"
                       and event["pid"] == 1}
        assert core_tracks == set(range(recorder.n_cores))
        assert document["otherData"]["arch"] == arch

    @pytest.mark.parametrize("arch,fast_forward", ARCH_MODE)
    def test_core_slices_do_not_overlap(self, arch, fast_forward, traced):
        recorder, _ = traced[arch, fast_forward]
        document = recorder.to_perfetto()
        per_core = {}
        for event in document["traceEvents"]:
            if event["ph"] == "X" and event["pid"] == 1:
                per_core.setdefault(event["tid"], []).append(
                    (event["ts"], event["dur"]))
        for spans in per_core.values():
            spans.sort()
            for (ts_a, dur_a), (ts_b, _) in zip(spans, spans[1:]):
                assert ts_a + dur_a <= ts_b

    def test_im_bank_gate_tracks(self, built):
        system = build_platform("ulpmc-bank", fast_forward=False)
        recorder = TraceRecorder.attach(system)
        system.run(built.benchmark)
        document = recorder.to_perfetto()
        gate_states = {event["tid"]: event["name"]
                       for event in document["traceEvents"]
                       if event["ph"] == "X" and event["pid"] == 3}
        assert set(gate_states) == set(range(system.config.im_banks))
        assert gate_states and "gated" in gate_states.values()
        gated = {bank for bank, state in gate_states.items()
                 if state == "gated"}
        assert gated == set(system.imem.gated_banks)

    def test_ff_span_track_present_only_in_fast_mode(self, traced):
        slow, _ = traced["ulpmc-int", False]
        fast, _ = traced["ulpmc-int", True]
        assert not slow.ff_spans
        assert fast.ff_spans
        document = fast.to_perfetto()
        spans = [event for event in document["traceEvents"]
                 if event["ph"] == "X" and event["pid"] == 2]
        assert len(spans) == len(fast.ff_spans)
        assert sum(event["dur"] for event in spans) \
            == sum(length for _, length in fast.ff_spans)


class TestExactness:
    @pytest.mark.parametrize("arch,fast_forward", ARCH_MODE)
    def test_slice_totals_equal_stats(self, arch, fast_forward, traced):
        recorder, stats = traced[arch, fast_forward]
        totals = recorder.slice_totals()
        for pid, core in enumerate(stats.cores):
            assert totals[pid].get("run", 0) == core.retired, \
                f"core {pid} run-slice total != retired"
            assert totals[pid].get("stall", 0) == core.stall_cycles, \
                f"core {pid} stall-slice total != stall_cycles"

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_modes_produce_identical_slices(self, arch, traced):
        slow, slow_stats = traced[arch, False]
        fast, fast_stats = traced[arch, True]
        assert slow_stats == fast_stats
        assert sorted(slow.slices) == sorted(fast.slices)

    @pytest.mark.parametrize("arch,fast_forward", ARCH_MODE)
    def test_end_cycle_is_total_cycles(self, arch, fast_forward, traced):
        recorder, stats = traced[arch, fast_forward]
        assert recorder.end_cycle == stats.total_cycles

    @pytest.mark.parametrize("arch,fast_forward", ARCH_MODE)
    def test_halted_slices_close_the_timeline(self, arch, fast_forward,
                                              traced):
        recorder, stats = traced[arch, fast_forward]
        document = recorder.to_perfetto()
        per_core = {core: 0 for core in range(recorder.n_cores)}
        for event in document["traceEvents"]:
            if event["ph"] == "X" and event["pid"] == 1:
                per_core[event["tid"]] += event["dur"]
        # run + stall + halted spans cover every cycle on every track.
        assert all(total == stats.total_cycles
                   for total in per_core.values())


class TestSave:
    def test_save_writes_loadable_json(self, built, tmp_path):
        system = build_platform("mc-ref", fast_forward=False)
        recorder = TraceRecorder.attach(system)
        system.run(built.benchmark)
        path = recorder.save(tmp_path / "nested" / "trace.json")
        document = json.loads(path.read_text(encoding="utf-8"))
        _validate_trace_events(document)
