"""Probe bus: subscription mechanics and event-stream exactness.

The load-bearing property is *mode independence*: a subscriber must see
the same aggregate event stream whether the platform runs cycle-stepped
or through the fast-forward engine, and the stream must reconcile with
the simulator's own ``SimulationStats`` accounting.  The bus carries
only the events a shipped consumer reads.
"""

import pytest

from repro.errors import ConfigurationError
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import ProbeMetrics
from repro.obs.probes import EVENTS, ProbeBus
from repro.platform import build_platform


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


class TestBusMechanics:
    def test_unknown_event_rejected(self):
        bus = ProbeBus()
        with pytest.raises(ConfigurationError):
            bus.subscribe("core.retier", lambda *a: None)

    def test_active_tracks_subscriptions(self):
        bus = ProbeBus()
        assert not bus.active
        handler = bus.subscribe("core.retire", lambda *a: None)
        assert bus.active
        assert bus.wants("core.retire")
        assert not bus.wants("core.stall")
        bus.unsubscribe("core.retire", handler)
        assert not bus.active

    def test_observed_ignores_snapshot_subscribers(self):
        bus = ProbeBus()
        for event in ("telemetry.window", "block.done"):
            bus.subscribe(event, lambda *a: None)
        assert bus.active and not bus.observed
        metrics = ProbeMetrics.attach(bus)  # a sink, not a subscriber
        assert not bus.observed
        metrics.detach()
        bus.subscribe("ff.exit", lambda *a: None)
        assert bus.observed

    def test_emit_order_and_args(self):
        bus = ProbeBus()
        seen = []
        bus.subscribe("core.stall", lambda *a: seen.append(("first", a)))
        bus.subscribe("core.stall", lambda *a: seen.append(("second", a)))
        bus.emit("core.stall", 7, 3, 8)
        assert seen == [("first", (7, 3, 8)), ("second", (7, 3, 8))]

    def test_subscribed_context_detaches(self):
        bus = ProbeBus()
        with bus.subscribed({"ff.exit": lambda *a: None}):
            assert bus.wants("ff.exit")
        assert not bus.active

    def test_clear(self):
        bus = ProbeBus()
        bus.subscribe("core.stall", lambda *a: None)
        bus.clear()
        assert not bus.active

    def test_event_catalogue_is_frozen(self):
        assert EVENTS == {"core.retire", "core.stall", "ff.exit",
                          "block.done", "telemetry.window"}
        with pytest.raises(AttributeError):
            EVENTS.add("nope")


def _count_events(arch, built, fast_forward):
    system = build_platform(arch, fast_forward=fast_forward)
    bus = system.probe_bus()
    counts = {event: 0 for event in EVENTS}
    cycles = {"retire_max": -1}

    def counter(event):
        def handler(*args):
            counts[event] += 1
            if event == "core.retire":
                cycles["retire_max"] = max(cycles["retire_max"], args[0])
        return handler

    for event in EVENTS - {"block.done"}:
        bus.subscribe(event, counter(event))
    stats = system.run(built.benchmark).stats
    bus.clear()
    return counts, cycles, stats


class TestEventStream:
    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int", "ulpmc-bank"])
    def test_counts_reconcile_with_stats(self, arch, built):
        counts, cycles, stats = _count_events(arch, built, False)
        assert counts["core.retire"] == stats.total_retired
        assert counts["core.stall"] == stats.total_stall_cycles
        # 0-based cycle numbering: the last retire happens in the final
        # cycle of the run.
        assert cycles["retire_max"] == stats.total_cycles - 1

    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int", "ulpmc-bank"])
    def test_fast_forward_stream_is_identical(self, arch, built):
        slow_counts, _, slow_stats = _count_events(arch, built, False)
        fast_counts, _, fast_stats = _count_events(arch, built, True)
        assert slow_stats == fast_stats
        for event in EVENTS - {"ff.exit", "block.done"}:
            assert fast_counts[event] == slow_counts[event], event

    def test_ff_span_events(self, built):
        """The stretches ``ff.exit`` closes are disjoint and in cycle
        order."""
        system = build_platform("ulpmc-int", fast_forward=True)
        spans = []
        system.probe_bus().subscribe(
            "ff.exit", lambda cycle, fast: spans.append((cycle - fast,
                                                          cycle)))
        stats = system.run(built.benchmark).stats
        assert len(spans) > 1
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        assert 0 <= spans[0][0] and spans[-1][1] <= stats.total_cycles

    def test_ff_exit_cycles_match_engine(self, built):
        system = build_platform("ulpmc-int", fast_forward=True)
        bus = system.probe_bus()
        committed = []
        bus.subscribe("ff.exit",
                      lambda cycle, fast: committed.append(fast))
        system.run(built.benchmark)
        assert sum(committed) == system._ff_engine.fast_cycles

    def test_attached_idle_bus_changes_nothing(self, built):
        plain = build_platform("ulpmc-bank", fast_forward=False).run(
            built.benchmark).stats
        system = build_platform("ulpmc-bank", fast_forward=False)
        system.probe_bus()  # attached, no subscribers
        assert system.run(built.benchmark).stats == plain

    def test_subscribed_run_changes_nothing(self, built):
        plain = build_platform("ulpmc-bank", fast_forward=False).run(
            built.benchmark).stats
        system = build_platform("ulpmc-bank", fast_forward=False)
        bus = system.probe_bus()
        for event in EVENTS:
            bus.subscribe(event, lambda *a: None)
        assert system.run(built.benchmark).stats == plain

    def test_hooks_unwired_after_run(self, built):
        """The run loop hooks the metrics sink's broadcast-width
        histograms into the crossbars and unhooks them when it
        returns."""
        system = build_platform("ulpmc-int", fast_forward=False)
        bus = system.probe_bus()
        for event in EVENTS:
            bus.subscribe(event, lambda *a: None)
        metrics = ProbeMetrics.attach(bus)
        stats = system.run(built.benchmark).stats
        assert metrics.im_bc_width.count == stats.im_broadcasts > 0
        for xbar in (system.ixbar, system.dxbar):
            assert xbar.widths is None


class TestBlockDone:
    def test_streaming_emits_block_done(self, built):
        from repro.kernels.benchmark import build_block_series
        from repro.platform.streaming import run_stream

        series = build_block_series(built.spec, n_blocks=2)
        system = build_platform("mc-ref", fast_forward=False)
        done = []
        system.probe_bus().subscribe(
            "block.done", lambda index, stats: done.append((index,
                                                            stats.total_cycles)))
        report = run_stream("mc-ref", series, clock_hz=1e6, system=system)
        assert [index for index, _ in done] == [0, 1]
        assert [cycles for _, cycles in done] == report.cycles_per_block
