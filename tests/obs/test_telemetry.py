"""Windowed-telemetry determinism and reconciliation properties.

The aggregator's whole value rests on two contracts (see the module
docstring of :mod:`repro.obs.telemetry`):

* **Bit identity** — the per-window summary stream is identical across
  the exact, fast-forward and translation-block execution modes, with
  loop traces on and off.  Six run configurations per platform, one
  digest (``test_window_oracle.py`` also pins it to a fold of the
  per-event stream).
* **Partition, not resample** — summing the windows reproduces the
  whole-run totals exactly: the metrics-registry histogram totals, the
  :class:`~repro.platform.stats.SimulationStats` fields and the
  per-core retire/stall counts.

Plus the engine contract that makes watching cheap (windows keep loop
traces, per-event subscribers do not), the fleet-merge algebra, the
streaming offsets/deadline accounting, and the small pure helpers.
"""

from unittest import mock

import pytest

import repro.platform.fast_forward as ff_engine
from repro.errors import ConfigurationError
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.obs import (ProbeMetrics, TraceRecorder, WindowedAggregator,
                       summaries_digest)
from repro.obs.telemetry import COUNTER_FIELDS, WindowSummary, \
    merge_window_lists, percentile
from repro.platform import build_platform

WINDOW = 1024

#: label -> (fast_forward, blocks); the three execution paths that must
#: agree bit-for-bit (``blocks=False`` patches the engine's test-only
#: switch for the per-instruction-only engine).
MODES = {
    "exact": (False, True),
    "fast-forward": (True, False),
    "blocks": (True, True),
}


@pytest.fixture(scope="module")
def built():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


@pytest.fixture(scope="module")
def stream():
    """A watched 3-block fast-forward stream: (aggregator, report)."""
    from repro.kernels.benchmark import build_block_series
    from repro.platform.streaming import run_stream

    spec = BenchmarkSpec(n_samples=64, n_measurements=32,
                         huffman_private=True)
    series = build_block_series(spec, n_blocks=3)
    system = build_platform("ulpmc-bank", fast_forward=True)
    aggregator = WindowedAggregator.attach(
        system.probe_bus(), window_cycles=WINDOW,
        deadline_budget_cycles=1.0)  # everything misses
    report = run_stream("ulpmc-bank", series, clock_hz=1e6, system=system)
    aggregator.detach()
    return aggregator, report


def _run(built, arch, window=WINDOW, fast_forward=False, blocks=True,
         traces=True):
    system = build_platform(arch, fast_forward=fast_forward)
    aggregator = WindowedAggregator.attach(
        system.probe_bus(), window_cycles=window)
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks), \
            mock.patch.object(ff_engine, "LOOP_TRACES", traces):
        result = system.run(built.benchmark)
    aggregator.detach()
    return aggregator, result


class TestBitIdentity:
    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int", "ulpmc-bank"])
    def test_windows_identical_across_modes_and_traces(self, built, arch):
        digests = {}
        for label, (fast_forward, blocks) in MODES.items():
            for traces in (True, False):
                aggregator, _ = _run(built, arch, fast_forward=fast_forward,
                                     blocks=blocks, traces=traces)
                assert len(aggregator.windows) > 1, \
                    "identity would be vacuous with <2 windows"
                digests[(label, traces)] = aggregator.digest()
        assert len(set(digests.values())) == 1, digests

    def test_boundaries_exact_and_final_flagged(self, built):
        aggregator, result = _run(built, "ulpmc-bank", fast_forward=True)
        windows = aggregator.windows
        for window in windows[:-1]:
            assert not window.final
            assert window.end_cycle % WINDOW == 0
            assert window.cycles == WINDOW
        assert windows[-1].final
        assert windows[-1].end_cycle == result.stats.total_cycles
        assert [w.index for w in windows] == list(range(len(windows)))


class TestEngineTiers:
    """Windows read counter snapshots, so watching keeps loop traces;
    a per-event subscriber still gets the trace-free engine paths."""

    def test_watched_stream_runs_traces(self, stream):
        _, report = stream
        assert sum(outcome.block_summary["trace_cycles"]
                   for outcome in report.blocks) > 0

    def test_probe_metrics_run_stays_trace_free(self, built):
        """What ``repro trace`` attaches: the metrics sink alone keeps
        traces, the Perfetto recorder beside it turns them off."""
        system = build_platform("ulpmc-bank", fast_forward=True)
        ProbeMetrics.attach(system.probe_bus())
        TraceRecorder.attach(system)
        system.run(built.benchmark)
        summary = system.block_summary()
        assert summary["block_cycles"] > 0
        assert summary["trace_cycles"] == 0


class TestPartition:
    @pytest.fixture(scope="class", params=["exact", "blocks"])
    def run(self, built, request):
        # The metrics sink and the aggregator ride the same bus, and
        # neither observes it: the blocks mode runs loop traces.
        system = build_platform("ulpmc-bank",
                                fast_forward=MODES[request.param][0])
        bus = system.probe_bus()
        collector = ProbeMetrics.attach(bus)
        aggregator = WindowedAggregator.attach(bus, window_cycles=WINDOW)
        result = system.run(built.benchmark)
        aggregator.detach()
        return aggregator, collector, result

    def test_totals_match_metrics_registry(self, run):
        aggregator, collector, _ = run
        totals = aggregator.totals()
        snapshot = collector.registry.snapshot()
        groups = snapshot["sync_group_size"]
        assert totals["cycles"] == groups["count"]
        assert totals["sync_cycles"] <= groups["buckets"].get("1", 0)
        for side in ("im", "dm"):
            widths = snapshot[f"{side}_broadcast_width"]
            assert totals[f"{side}_broadcasts"] == widths["count"]
            assert totals[f"{side}_broadcast_savings"] \
                == widths["total"] - widths["count"]

    def test_totals_match_simulation_stats(self, run):
        aggregator, _, result = run
        stats = result.stats
        totals = aggregator.totals()
        assert totals["cycles"] == stats.total_cycles
        assert totals["retired"] == stats.total_retired
        assert totals["stalls"] == stats.total_stall_cycles
        assert totals["sync_cycles"] == stats.sync_cycles
        assert totals["ixbar_conflicts"] == stats.im_conflict_events
        assert totals["dxbar_conflicts"] == stats.dm_conflict_events
        assert totals["im_broadcasts"] == stats.im_broadcasts
        assert totals["dm_broadcasts"] == stats.dm_broadcasts
        assert totals["im_broadcast_savings"] == stats.im_broadcast_savings
        assert totals["dm_broadcast_savings"] == stats.dm_broadcast_savings
        assert totals["mmu_private"] == stats.dm_private_accesses
        assert totals["mmu_shared"] == stats.dm_shared_accesses

    def test_per_core_window_sums_match_stats(self, run):
        aggregator, _, result = run
        windows = aggregator.windows
        n = len(result.stats.cores)
        for pid in range(n):
            assert sum(w.core_retired[pid] for w in windows) \
                == result.stats.cores[pid].retired
            assert sum(w.core_stalls[pid] for w in windows) \
                == result.stats.cores[pid].stall_cycles


class TestMerge:
    def test_merge_doubles_counters_and_concatenates_cores(self, built):
        first, _ = _run(built, "ulpmc-int", fast_forward=True)
        second, _ = _run(built, "ulpmc-int", fast_forward=True)
        merged = first.merge(second)
        assert len(merged) == len(first.windows)
        for fleet, shard in zip(merged, first.windows):
            for name in COUNTER_FIELDS:
                assert getattr(fleet, name) == 2 * getattr(shard, name)
            assert fleet.core_retired \
                == shard.core_retired + shard.core_retired
            assert fleet.cycles == shard.cycles

    def test_merge_accepts_plain_window_lists(self, built):
        aggregator, _ = _run(built, "mc-ref", fast_forward=True)
        merged = aggregator.merge(list(aggregator.windows))
        assert summaries_digest(merged) != aggregator.digest()  # doubled
        assert merged[0].retired == 2 * aggregator.windows[0].retired

    def test_combine_rejects_mixed_indices(self, built):
        aggregator, _ = _run(built, "mc-ref", fast_forward=True)
        with pytest.raises(ConfigurationError):
            WindowSummary.combine(aggregator.windows[:2])
        with pytest.raises(ConfigurationError):
            WindowSummary.combine([])


class TestMergeAlgebra:
    """Shapes the farm relies on when folding shard window streams."""

    @pytest.fixture(scope="class")
    def windows(self, built):
        aggregator, _ = _run(built, "ulpmc-int", fast_forward=True)
        return list(aggregator.windows)

    def test_single_shard_is_a_no_op(self, windows):
        merged = merge_window_lists(windows)
        assert summaries_digest(merged) == summaries_digest(windows)

    def test_empty_shard_is_a_no_op(self, windows):
        merged = merge_window_lists(windows, [])
        assert summaries_digest(merged) == summaries_digest(windows)
        assert merge_window_lists() == []

    def test_unequal_shard_window_counts(self, windows):
        assert len(windows) > 2, "need a truncatable stream"
        short = windows[:2]
        merged = merge_window_lists(windows, short)
        assert len(merged) == len(windows)
        for fleet, shard in zip(merged[:2], windows[:2]):
            assert fleet.retired == 2 * shard.retired
        # beyond the short shard's horizon the long shard passes through
        assert summaries_digest(merged[2:]) \
            == summaries_digest(windows[2:])

    def test_merge_of_merges_is_associative(self, windows):
        a, b, c = windows, windows, windows
        left = merge_window_lists(merge_window_lists(a, b), c)
        right = merge_window_lists(a, merge_window_lists(b, c))
        flat = merge_window_lists(a, b, c)
        assert summaries_digest(left) == summaries_digest(right) \
            == summaries_digest(flat)

    def test_dict_round_trip_preserves_digest(self, windows):
        payloads = [window.to_dict() for window in windows]
        rebuilt = [WindowSummary.from_dict(payload)
                   for payload in payloads]
        assert [w.to_dict() for w in rebuilt] == payloads
        assert summaries_digest(rebuilt) == summaries_digest(windows)
        # merge accepts the dict transport form directly
        assert summaries_digest(merge_window_lists(payloads)) \
            == summaries_digest(windows)

    def test_dict_missing_field_rejected(self, windows):
        payload = windows[0].to_dict()
        payload.pop("retired")
        with pytest.raises(ConfigurationError, match="retired"):
            WindowSummary.from_dict(payload)


class TestStreaming:
    def test_stream_offsets_never_alias(self, stream):
        aggregator, _ = stream
        edges = [(w.start_cycle, w.end_cycle) for w in aggregator.windows]
        assert all(start < end for start, end in edges)
        assert all(prev[1] == cur[0]
                   for prev, cur in zip(edges, edges[1:])), \
            "windows must tile the stream without gaps or overlap"

    def test_stream_totals_cover_all_blocks(self, stream):
        aggregator, report = stream
        assert aggregator.blocks_done == 3
        assert aggregator.totals()["cycles"] \
            == sum(aggregator.block_cycles)
        assert sum(1 for w in aggregator.windows if w.final) == 3

    def test_deadline_misses_counted(self, stream):
        aggregator, _ = stream
        assert aggregator.deadline_misses == 3
        fleet = aggregator.fleet_summary()
        assert fleet["streaming"]["deadline_misses"] == 3
        assert fleet["streaming"]["blocks_done"] == 3


class TestHelpers:
    def test_percentile_semantics(self):
        assert percentile([], 0.5) is None
        assert percentile([3.0], 0.99) == 3.0
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.99) == 4.0

    def test_window_cycles_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedAggregator(window_cycles=0)
        with pytest.raises(ConfigurationError):
            WindowedAggregator(window_cycles="8192")

    def test_fleet_summary_shape(self, built):
        aggregator, _ = _run(built, "mc-ref", fast_forward=True)
        fleet = aggregator.fleet_summary(recent=4)
        assert fleet["windows"] == len(aggregator.windows)
        for name in ("ipc", "stall_rate", "conflicts_per_kcycle",
                     "broadcasts_per_kcycle", "lockstep_fraction"):
            stats = fleet["rates"][name]
            assert set(stats) == {"last", "mean", "p50", "p99"}
        assert "streaming" not in fleet  # no block.done events
