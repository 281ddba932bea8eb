"""Metrics registry and the probe-driven collector."""

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import MetricsRegistry, ProbeMetrics
from repro.platform import build_platform


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


class TestPrimitives:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits", "help text")
        counter.inc()
        counter.inc(4)
        assert registry.counter("hits").value == 5
        assert registry.get("hits") is counter

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("depth").set(3.5)
        assert registry.gauge("depth").value == 3.5

    def test_histogram(self):
        histogram = MetricsRegistry().histogram("sizes")
        for value in (1, 1, 2, 8):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 12
        assert histogram.mean == 3.0
        assert (histogram.min, histogram.max) == (1, 8)
        assert histogram.percentile(0.5) == 1
        assert histogram.percentile(1.0) == 8
        assert histogram.buckets() == [(1, 2), (2, 1), (8, 1)]

    def test_empty_histogram(self):
        histogram = MetricsRegistry().histogram("empty")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min is None
        assert histogram.percentile(0.5) is None

    def test_type_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.histogram("name")

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.histogram("widths").observe(2, 5)
        snapshot = registry.snapshot()
        assert snapshot["events"] == 3
        assert snapshot["widths"]["buckets"] == {"2": 5}
        text = registry.render()
        assert "events" in text and "widths" in text


class TestUpdateFromStats:
    def test_imports_every_scalar_field(self, built):
        stats = build_platform("ulpmc-int", fast_forward=False).run(
            built.benchmark).stats
        registry = MetricsRegistry()
        registry.update_from_stats(stats)
        assert registry.counter("sim.total_cycles").value \
            == stats.total_cycles
        assert registry.counter("sim.im_broadcasts").value \
            == stats.im_broadcasts
        assert registry.counter("sim.total_retired").value \
            == stats.total_retired


class TestProbeMetrics:
    @pytest.mark.parametrize("fast_forward", [False, True])
    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int", "ulpmc-bank"])
    def test_reconciles_with_stats(self, arch, fast_forward, built):
        system = build_platform(arch, fast_forward=fast_forward)
        collector = ProbeMetrics.attach(system.probe_bus())
        stats = system.run(built.benchmark).stats
        assert collector.verify_against(stats) == []

    def test_sync_group_histogram_subsumes_sync_cycles(self, built):
        """The size-1 bucket over multi-core cycles is exactly the
        aggregate ``sync_cycles`` counter — plus the tail of cycles in
        which only one core was still running (those never count as
        synchronised)."""
        system = build_platform("ulpmc-int", fast_forward=False)
        collector = ProbeMetrics.attach(system.probe_bus())
        per_cycle_cores = {}
        system.probe_bus().subscribe(
            "core.retire",
            lambda cycle, pid, pc: per_cycle_cores.setdefault(cycle, set())
            .add(pid))
        system.probe_bus().subscribe(
            "core.stall",
            lambda cycle, pid, pc: per_cycle_cores.setdefault(cycle, set())
            .add(pid))
        stats = system.run(built.benchmark).stats
        histogram = collector.sync_groups
        assert histogram.count == stats.total_cycles
        lone_core_cycles = sum(1 for cores in per_cycle_cores.values()
                               if len(cores) == 1)
        assert histogram.counts[1] == stats.sync_cycles + lone_core_cycles

    def test_conflict_burst_lengths_cover_conflict_cycles(self, built):
        """The bursts partition the cycles with a crossbar conflict,
        which the reference loop logs."""
        from tests.interconnect.reference_loop import reference_run

        log = []
        reference_run(build_platform("ulpmc-int", fast_forward=False),
                      built.benchmark, log=log)
        conflict_cycles = {cycle for event, cycle, *_ in log
                           if event.endswith(".conflict")}
        system = build_platform("ulpmc-int", fast_forward=False)
        collector = ProbeMetrics.attach(system.probe_bus())
        system.run(built.benchmark)
        histogram = collector.conflict_bursts
        assert histogram.total == len(conflict_cycles)
        assert histogram.count >= 1
        assert histogram.max >= 1

    def test_detach(self, built):
        system = build_platform("mc-ref", fast_forward=False)
        bus = system.probe_bus()
        collector = ProbeMetrics.attach(bus)
        collector.detach()
        assert not bus.active and bus.metrics is None
        system.run(built.benchmark)
        assert collector.sync_groups.count == 0
