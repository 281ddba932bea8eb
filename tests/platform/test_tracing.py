"""Execution tracing: non-invasive observation of synchronisation."""

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.platform import build_platform
from repro.platform.tracing import render_trace, sync_profile, trace_run


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


class TestTraceRun:
    def test_trace_is_non_invasive(self, built):
        """A traced run retires the same cycles as an untraced one and
        the results still verify bit-exactly."""
        from repro.platform.multicore import SimulationResult

        plain_cycles = build_platform("ulpmc-bank", fast_forward=False).run(
            built.benchmark).stats.total_cycles

        traced_system = build_platform("ulpmc-bank", fast_forward=False)
        trace = trace_run(traced_system, built.benchmark, start=0,
                          length=50)
        assert len(trace) == 50
        verify_result(built, SimulationResult(
            benchmark=built.benchmark, stats=None, system=traced_system))
        # Cycle-identical: re-running the traced machine untraced gives
        # the same count as the never-traced machine.
        assert traced_system.run(built.benchmark).stats.total_cycles \
            == plain_cycles

    def test_window_selection(self, built):
        system = build_platform("mc-ref", fast_forward=False)
        trace = trace_run(system, built.benchmark, start=100, length=10)
        assert [record.cycle for record in trace.cycles] \
            == list(range(100, 110))

    def test_lockstep_visible_in_cs_phase(self, built):
        """During CS the cores fetch the same PC (1 distinct group)."""
        system = build_platform("ulpmc-bank", fast_forward=False)
        trace = trace_run(system, built.benchmark, start=500, length=100)
        profile = sync_profile(trace)
        assert max(profile) == 1

    def test_desync_visible_in_huffman_phase(self, built):
        """Near the end of the run the data-dependent Huffman flow has
        spread the PCs over several groups."""
        system = build_platform("ulpmc-bank", fast_forward=False)
        full = trace_run(system, built.benchmark, start=0, length=10**9)
        profile = sync_profile(full)
        assert max(profile[-2000:]) > 1

    def test_stall_marks(self, built):
        system = build_platform("ulpmc-bank", fast_forward=False)
        full = trace_run(system, built.benchmark, start=0, length=10**9)
        stalls = sum(1 for record in full.cycles
                     for entry in record.cores
                     if entry is not None and entry[1])
        assert stalls > 0


class TestFastForwardTracing:
    """Regression: the pre-probe-bus tracer monkey-patched the exact
    commit path, so any cycle batch-committed by the fast-forward engine
    silently vanished from the trace."""

    def test_fast_forward_cycles_are_recorded(self, built):
        system = build_platform("ulpmc-int", fast_forward=True)
        trace = trace_run(system, built.benchmark, start=0, length=200)
        assert len(trace) == 200
        # The window spans engine-committed stretches: at least one
        # recorded cycle must actually have run inside one.
        spans = []
        bus = system.probe_bus()
        bus.subscribe("ff.exit",
                      lambda cycle, fast: spans.append((cycle - fast, fast)))
        system.run(built.benchmark)
        bus.clear()
        assert any(start < 200 and start + length > 0
                   for start, length in spans if length)

    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int", "ulpmc-bank"])
    def test_trace_identical_across_modes(self, arch, built):
        slow = trace_run(build_platform(arch, fast_forward=False),
                         built.benchmark, start=0, length=10**9)
        fast = trace_run(build_platform(arch, fast_forward=True),
                         built.benchmark, start=0, length=10**9)
        assert slow.cycles == fast.cycles


class TestRendering:
    def test_render(self, built):
        system = build_platform("ulpmc-int", fast_forward=False)
        trace = trace_run(system, built.benchmark, start=0, length=5)
        text = render_trace(trace)
        lines = text.splitlines()
        assert lines[0].startswith("cycle")
        assert len(lines) == 6
        assert "core7" in lines[0]

    def test_render_empty_trace(self, built):
        """Regression: a window past the end of the run used to crash
        ``render_trace`` with an IndexError on ``cycles[0]``."""
        from repro.platform.tracing import Trace

        system = build_platform("mc-ref", fast_forward=False)
        trace = trace_run(system, built.benchmark, start=10**8, length=10)
        assert len(trace) == 0
        text = render_trace(trace)
        assert "empty trace" in text
        assert render_trace(Trace(arch="")).startswith("(empty trace")


class TestSyncProfile:
    def test_all_halted_cycles_are_skipped(self):
        """Regression: a record whose entries are all ``None`` used to
        contribute a 0 to the profile, deflating min/mean statistics."""
        from repro.platform.tracing import Trace, TraceCycle

        trace = Trace(arch="mc-ref", cycles=[
            TraceCycle(cycle=0, cores=((0x10, False), (0x10, False))),
            TraceCycle(cycle=1, cores=(None, None)),
            TraceCycle(cycle=2, cores=((0x12, False), (0x14, True))),
        ])
        assert sync_profile(trace) == [1, 2]

    def test_profile_matches_trace_length_when_cores_active(self, built):
        system = build_platform("ulpmc-bank", fast_forward=False)
        trace = trace_run(system, built.benchmark, start=0, length=10**9)
        # Every recorded cycle has at least one active core, so nothing
        # is skipped.
        assert len(sync_profile(trace)) == len(trace)
