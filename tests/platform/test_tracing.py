"""Per-cycle tracing: the ``core.retire``/``core.stall`` stream the
Perfetto recorder reads, and the synchronisation it shows.

A recorded run (any per-cycle subscriber attached) is observed: it runs
translation blocks but no loop traces, and the cycle loop synthesises
the blocks' retire events.  Recording must not change what a run
computes or which blocks it enters, and every engine must deliver the
same stream.  Where the cores run in lockstep and where they drift
apart shows in the metrics sink's ``sync_group_size`` histogram and in
the telemetry windows' ``lockstep_fraction``.
"""

from unittest import mock

import pytest

import repro.platform.fast_forward as ff_engine
from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.obs import ProbeMetrics, TraceRecorder, WindowedAggregator
from repro.platform import ARCH_NAMES, build_platform

#: The platform's engines: ``(fast_forward, TRANSLATION_BLOCKS)``.
ENGINES = {"exact": (False, True), "per-instruction": (True, False),
           "default": (True, True)}


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


def retire_stall_stream(arch, benchmark, fast_forward, blocks):
    """Every ``(cycle, pid, pc)`` retire and stall event of one run,
    in cycle order (and its stats)."""
    system = build_platform(arch, fast_forward=fast_forward)
    events = {"core.retire": [], "core.stall": []}
    for name, stream in events.items():
        system.probe_bus().subscribe(
            name, lambda *args, _stream=stream: _stream.append(args))
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks):
        stats = system.run(benchmark).stats
    return {name: sorted(stream) for name, stream in events.items()}, stats


def windows(arch, benchmark, window_cycles):
    system = build_platform(arch, fast_forward=False)
    aggregator = WindowedAggregator.attach(system.probe_bus(),
                                           window_cycles=window_cycles)
    system.run(benchmark)
    return aggregator.windows


class TestTraceRun:
    def test_trace_is_non_invasive(self, built):
        """A recorded run takes the same cycles as an unrecorded one and
        its results still verify bit-exactly."""
        plain = build_platform("ulpmc-bank").run(built.benchmark).stats
        system = build_platform("ulpmc-bank")
        recorder = TraceRecorder.attach(system)
        result = system.run(built.benchmark)
        verify_result(built, result)
        assert result.stats == plain
        recorder.detach()
        assert system.run(built.benchmark).stats == plain

    def test_lockstep_visible_in_cs_phase(self, built):
        """During CS the cores fetch the same PC: cycles 500-600 are
        all lockstep."""
        window = windows("ulpmc-bank", built.benchmark, 100)[5]
        assert (window.start_cycle, window.end_cycle) == (500, 600)
        assert window.lockstep_fraction == 1.0

    def test_desync_visible_in_huffman_phase(self, built):
        """Near the end of the run the data-dependent Huffman flow has
        spread the PCs over several groups: the last 2,000 cycles are
        not all lockstep, and the run has sync groups of several PCs."""
        last = windows("ulpmc-bank", built.benchmark, 1000)[-2:]
        assert sum(window.cycles for window in last) > 1000
        assert min(window.lockstep_fraction for window in last) < 1.0
        system = build_platform("ulpmc-bank")
        metrics = ProbeMetrics.attach(system.probe_bus())
        system.run(built.benchmark)
        assert metrics.sync_groups.max > 1

    def test_stall_marks(self, built):
        system = build_platform("ulpmc-bank", fast_forward=False)
        recorder = TraceRecorder.attach(system)
        stats = system.run(built.benchmark).stats
        recorder.finish()
        stalls = sum(totals.get("stall", 0)
                     for totals in recorder.slice_totals().values())
        assert stalls == stats.total_stall_cycles > 0


class TestFastForwardTracing:
    """Regression: the pre-probe-bus tracer monkey-patched the exact
    commit path, so any cycle batch-committed by the fast-forward engine
    silently vanished from the trace."""

    def test_fast_forward_cycles_are_recorded(self, built):
        system = build_platform("ulpmc-int", fast_forward=True)
        recorder = TraceRecorder.attach(system)
        stats = system.run(built.benchmark).stats
        recorder.finish()
        # The first 200 cycles span engine-committed stretches, and
        # every core's slices cover them.
        assert any(start < 200 and length
                   for start, length in recorder.ff_spans)
        for core in range(system.config.n_cores):
            covered = sum(min(start + length, 200) - start
                          for pid, _, start, length in recorder.slices
                          if pid == core and start < 200)
            assert covered == 200, core
        runs = sum(totals.get("run", 0)
                   for totals in recorder.slice_totals().values())
        assert runs == stats.total_retired

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_trace_identical_across_modes(self, arch, built):
        """The full ``(cycle, pid, pc)`` retire and stall streams of the
        exact, per-instruction and default engines are equal."""
        (exact, stats), *others = [
            retire_stall_stream(arch, built.benchmark, *engine)
            for engine in ENGINES.values()]
        assert len(exact["core.retire"]) == stats.total_retired
        assert len(exact["core.stall"]) == stats.total_stall_cycles
        for label, (streams, other_stats) in zip(list(ENGINES)[1:], others):
            assert other_stats == stats, label
            assert streams == exact, label

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_recorded_run_enters_blocks_like_a_trace_free_run(self, arch,
                                                              monkeypatch):
        """A recorded run enters the same blocks as an unobserved run
        without loop traces, one pass per entry: as many block entries
        and block cycles."""
        benchmark = build_benchmark(
            BenchmarkSpec(n_samples=32, n_measurements=16)).benchmark
        system = build_platform(arch)
        recorder = TraceRecorder.attach(system)
        stats = system.run(benchmark).stats
        recorder.detach()
        recorded = system.block_summary()
        monkeypatch.setattr(ff_engine, "LOOP_TRACES", False)
        bare = build_platform(arch)
        assert bare.run(benchmark).stats == stats
        for tier in ("entries", "block_cycles", "conflicts"):
            assert recorded[tier] == bare.block_summary()[tier], tier
        assert recorded["trace_cycles"] == 0


class TestSyncProfile:
    def test_profile_matches_trace_length_when_cores_active(self, built):
        """Every cycle of a run has a running core, so the sink's
        sync-group histogram counts each cycle once."""
        system = build_platform("ulpmc-bank", fast_forward=False)
        metrics = ProbeMetrics.attach(system.probe_bus())
        stats = system.run(built.benchmark).stats
        assert metrics.sync_groups.count == stats.total_cycles
        assert metrics.sync_groups.counts[1] >= stats.sync_cycles
