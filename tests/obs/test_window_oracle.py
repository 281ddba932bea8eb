"""Snapshot telemetry windows against a fold of the per-event stream.

:class:`~repro.obs.telemetry.WindowedAggregator` builds every window
from the cumulative counters the run loops snapshot at window edges, so
it subscribes to no per-cycle event and a watched run keeps its blocks
and loop traces.  :class:`ReferenceWindows` below is the fold it
replaced: it counts every retire/stall/conflict/broadcast/MMU event
into the open window as it is delivered and closes the window at the
edge (the loops emit each cycle's events before that cycle's edge).
Its runs are observed, so they take the trace-free engine paths; the
snapshot windows must equal its windows one by one in every execution
mode, window length, streamed run and fault scenario below.
"""

from unittest import mock

import pytest

import repro.platform.fast_forward as ff_engine
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.kernels.benchmark import build_block_series
from repro.obs import ProbeMetrics, WindowedAggregator
from repro.obs.probes import WINDOW_TOTALS
from repro.obs.telemetry import COUNTER_FIELDS, WindowSummary
from repro.platform import ARCH_NAMES, build_platform
from repro.platform.streaming import run_stream
from repro.resilience import (FaultSession, FaultSpec, FaultTrialSpec,
                              golden_run, measure_degradation)

#: label -> (fast_forward, blocks): exact, per-instruction fast-forward
#: and blocks + loop traces.
MODES = {
    "exact": (False, True),
    "fast-forward": (True, False),
    "blocks+traces": (True, True),
}

SYNC = WINDOW_TOTALS.index("sync_cycles")


class ReferenceWindows:
    """Window summaries folded from the per-event stream."""

    def __init__(self, bus, window_cycles: int):
        self.windows: list[WindowSummary] = []
        self._w = dict.fromkeys(COUNTER_FIELDS[:-1], 0)  # sync: snapshot
        self._base_retired = self._base_stalls = None
        self._base_sync = 0
        self._prev_end = 0
        self._offset = 0
        bus.window_cycles = window_cycles
        bus.subscribe("telemetry.window", self._on_window)
        for event, handler in {
            "core.retire": self._on_retire,
            "core.stall": self._on_stall,
            "ixbar.conflict": self._on_ixbar,
            "dxbar.conflict": self._on_dxbar,
            "im.broadcast": self._on_im_broadcast,
            "dm.broadcast": self._on_dm_broadcast,
            "mmu.translate": self._on_translate,
        }.items():
            bus.subscribe(event, handler)

    def _on_retire(self, cycle, pid, pc) -> None:
        self._w["retired"] += 1

    def _on_stall(self, cycle, pid, pc) -> None:
        self._w["stalls"] += 1

    def _on_ixbar(self, cycle, bank, masters) -> None:
        self._w["ixbar_conflicts"] += 1

    def _on_dxbar(self, cycle, bank, masters) -> None:
        self._w["dxbar_conflicts"] += 1

    def _on_im_broadcast(self, cycle, bank, width) -> None:
        self._w["im_broadcasts"] += 1
        self._w["im_broadcast_savings"] += width - 1

    def _on_dm_broadcast(self, cycle, bank, width) -> None:
        self._w["dm_broadcasts"] += 1
        self._w["dm_broadcast_savings"] += width - 1

    def _on_translate(self, cycle, pid, logical, bank, offset,
                      private) -> None:
        self._w["mmu_private" if private else "mmu_shared"] += 1

    def _on_window(self, end_cycle, final, retired, stalls, totals) -> None:
        sync_cycles = totals[SYNC]
        start = self._prev_end
        if end_cycle > start:
            base_retired = self._base_retired or (0,) * len(retired)
            base_stalls = self._base_stalls or (0,) * len(stalls)
            self.windows.append(WindowSummary(
                index=len(self.windows),
                start_cycle=self._offset + start,
                end_cycle=self._offset + end_cycle,
                final=final,
                core_retired=tuple(
                    now - base for now, base in zip(retired, base_retired)),
                core_stalls=tuple(
                    now - base for now, base in zip(stalls, base_stalls)),
                sync_cycles=sync_cycles - self._base_sync,
                **self._w))
            self._w = dict.fromkeys(self._w, 0)
        if final:
            self._offset += end_cycle
            self._prev_end = 0
            self._base_retired = self._base_stalls = None
            self._base_sync = 0
        else:
            self._prev_end = end_cycle
            self._base_retired = tuple(retired)
            self._base_stalls = tuple(stalls)
            self._base_sync = sync_cycles


def _dicts(windows):
    return [window.to_dict() for window in windows]


@pytest.fixture(scope="module")
def series():
    return build_block_series(
        BenchmarkSpec(n_samples=64, n_measurements=32,
                      huffman_private=True), n_blocks=2)


def _snapshot_stream(arch, series, window, fast_forward, blocks,
                     overrides=None):
    system = build_platform(arch, fast_forward=fast_forward,
                            **(overrides or {}))
    aggregator = WindowedAggregator.attach(system.probe_bus(),
                                           window_cycles=window)
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks):
        report = run_stream(arch, series, system=system)
    aggregator.detach()
    trace_cycles = sum(outcome.block_summary["trace_cycles"]
                       for outcome in report.blocks
                       if outcome.block_summary is not None)
    return _dicts(aggregator.windows), trace_cycles


@pytest.mark.parametrize("window", [97, 1024, 8192])
@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_stream_windows_equal_reference_fold(series, arch, window):
    system = build_platform(arch, fast_forward=False)
    oracle = ReferenceWindows(system.probe_bus(), window)
    run_stream(arch, series, system=system)
    expected = _dicts(oracle.windows)
    assert len(expected) > 2
    for label, (fast_forward, blocks) in MODES.items():
        windows, trace_cycles = _snapshot_stream(
            arch, series, window, fast_forward, blocks)
        assert windows == expected, label
        if label == "blocks+traces":
            assert trace_cycles > 0, "the watched stream ran no trace"


@pytest.mark.parametrize("arch,overrides",
                         [("ulpmc-bank", {"instr_broadcast": False}),
                          ("ulpmc-int", {"data_broadcast": False})])
def test_contended_windows_equal_reference_fold(series, arch, overrides):
    """Broadcast off, the cores contend: most cycles run in the exact
    loop, ports stay staged across 97-cycle window edges and the
    snapshots settle the waiting cores' stalls there."""
    system = build_platform(arch, fast_forward=False, **overrides)
    oracle = ReferenceWindows(system.probe_bus(), 97)
    run_stream(arch, series, system=system)
    expected = _dicts(oracle.windows)
    assert sum(window["stalls"] for window in expected) > 1000
    for label, (fast_forward, blocks) in MODES.items():
        windows, _ = _snapshot_stream(arch, series, 97, fast_forward,
                                      blocks, overrides)
        assert windows == expected, label


def test_dead_core_degradation_windows_equal_reference_fold(monkeypatch):
    """``measure_degradation``'s two dead-core passes, windowed at 97
    cycles: once as shipped (snapshots only), once with the reference
    fold on the same bus."""
    spec = FaultTrialSpec(trial=0, campaign_seed=2012, arch="ulpmc-bank",
                          n_samples=64, n_measurements=32)
    golden = golden_run(spec)
    attach = WindowedAggregator.attach
    runs = []

    def recording_attach(bus, window_cycles, deadline_budget_cycles):
        aggregator = attach(bus, 97, deadline_budget_cycles)
        runs.append((aggregator, with_oracle and ReferenceWindows(bus, 97)))
        return aggregator

    monkeypatch.setattr(WindowedAggregator, "attach", recording_attach)
    reports = []
    for with_oracle in (False, True):
        reports.append(measure_degradation(spec, golden, dead_core=2))
    assert reports[0] == reports[1]
    (shipped, _), (observed, oracle) = runs
    assert shipped.windows[-1].end_cycle == reports[0]["degraded_cycles"]
    assert _dicts(shipped.windows) == _dicts(observed.windows) \
        == _dicts(oracle.windows)


@pytest.mark.parametrize("fast_forward", [False, True])
def test_stuck_core_stalls_reach_events_windows_and_registry(fast_forward):
    """A clock-stuck core stalls every cycle; each such stall is a
    ``core.stall`` event, so event folds, the metrics registry, the
    windows and ``SimulationStats`` agree.  The core dies later, so the
    run finishes."""
    built = build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                          huffman_private=True))

    def run(attach):
        system = build_platform("ulpmc-int", fast_forward=fast_forward)
        attached = attach(system.probe_bus())
        faults = FaultSession([FaultSpec("stuck", 500, 3),
                               FaultSpec("dead", 4000, 3)],
                              watchdog_window=0)
        return attached, system.run(built.benchmark, faults=faults).stats

    aggregator, stats = run(
        lambda bus: WindowedAggregator.attach(bus, window_cycles=1024))
    (oracle, metrics), observed_stats = run(
        lambda bus: (ReferenceWindows(bus, 1024), ProbeMetrics.attach(bus)))
    assert stats == observed_stats
    assert stats.cores[3].stall_cycles >= 3500
    for window in aggregator.windows:
        assert window.stalls == sum(window.core_stalls)
    assert _dicts(aggregator.windows) == _dicts(oracle.windows)
    assert sum(window.stalls for window in oracle.windows) \
        == stats.total_stall_cycles
    assert metrics.verify_against(stats) == []
