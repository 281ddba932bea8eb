"""Snapshot telemetry windows against a fold of the per-event stream.

:class:`~repro.obs.telemetry.WindowedAggregator` builds every window
from the cumulative counters the run loops snapshot at window edges, so
it subscribes to no per-cycle event and a watched run keeps its blocks
and loop traces.  :class:`ReferenceWindows` below is the definition it
must reproduce: it counts every retire/stall/conflict/broadcast/MMU/
lockstep event of the reference cycle loop
(:func:`tests.interconnect.reference_loop.reference_run`) into the
window of its cycle, runs on one system continuing the stream where the
last one ended.  Each reference run is recorded once per module and
folded for every window length; the snapshot windows must equal its
windows one by one in every execution mode, window length, streamed
run and fault scenario below.
"""

from unittest import mock

import pytest

import repro.platform.fast_forward as ff_engine
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.kernels.benchmark import build_block_series
from repro.obs import ProbeMetrics, WindowedAggregator
from repro.obs.telemetry import COUNTER_FIELDS, WindowSummary
from repro.platform import ARCH_NAMES, build_platform
from repro.platform.multicore import MultiCoreSystem
from repro.platform.streaming import run_stream
from repro.resilience import (FaultSession, FaultSpec, FaultTrialSpec,
                              golden_run, measure_degradation)

from tests.interconnect.reference_loop import reference_run
from tests.obs.metrics_reference import ReferenceMetrics, histograms

#: label -> (fast_forward, blocks): exact, per-instruction fast-forward
#: and blocks + loop traces.
MODES = {
    "exact": (False, True),
    "fast-forward": (True, False),
    "blocks+traces": (True, True),
}

#: The window counter each reference-loop event adds one to.
_COUNTERS = {
    "core.retire": "retired",
    "core.stall": "stalls",
    "ixbar.conflict": "ixbar_conflicts",
    "dxbar.conflict": "dxbar_conflicts",
    "im.broadcast": "im_broadcasts",
    "dm.broadcast": "dm_broadcasts",
    "sync": "sync_cycles",
}


class ReferenceWindows:
    """Window summaries folded per event from the reference-loop event
    logs of consecutive runs on one system (``runs``: ``(log, stats)``
    pairs)."""

    def __init__(self, runs, window_cycles: int):
        self.windows: list[WindowSummary] = []
        offset = 0
        for log, stats in runs:
            cycles = stats.total_cycles
            n_cores = len(stats.cores)
            folds = [dict.fromkeys(COUNTER_FIELDS, 0)
                     for _ in range(-(-cycles // window_cycles))]
            for fold in folds:
                fold["core_retired"] = [0] * n_cores
                fold["core_stalls"] = [0] * n_cores
            for event, cycle, *payload in log:
                fold = folds[cycle // window_cycles]
                if event == "mmu.translate":
                    fold["mmu_private" if payload[1] else "mmu_shared"] += 1
                    continue
                fold[_COUNTERS[event]] += 1
                if event.endswith(".broadcast"):
                    fold[event[:2] + "_broadcast_savings"] += payload[1] - 1
                elif event == "core.retire":
                    fold["core_retired"][payload[0]] += 1
                elif event == "core.stall":
                    fold["core_stalls"][payload[0]] += 1
            for index, fold in enumerate(folds):
                start = index * window_cycles
                end = min(start + window_cycles, cycles)
                self.windows.append(WindowSummary(
                    index=len(self.windows),
                    start_cycle=offset + start,
                    end_cycle=offset + end,
                    # The final snapshot closes a window only when the
                    # run ends between two edges.
                    final=end == cycles and cycles % window_cycles != 0,
                    core_retired=tuple(fold.pop("core_retired")),
                    core_stalls=tuple(fold.pop("core_stalls")),
                    **fold))
            offset += cycles


def _dicts(windows):
    return [window.to_dict() for window in windows]


def record(system, benchmark, faults=None):
    """One reference run of ``benchmark`` on ``system``: ``(log, stats)``."""
    log = []
    return log, reference_run(system, benchmark, faults=faults, log=log)


@pytest.fixture(scope="module")
def series():
    return build_block_series(
        BenchmarkSpec(n_samples=64, n_measurements=32,
                      huffman_private=True), n_blocks=2)


@pytest.fixture(scope="module")
def reference_stream(series):
    """``(arch, **overrides) -> [(log, stats), ...]``: the reference
    loop's runs of the two-block series on one system, recorded once
    per module."""
    cache = {}

    def runs(arch, **overrides):
        key = (arch, tuple(sorted(overrides.items())))
        if key not in cache:
            system = build_platform(arch, fast_forward=False, **overrides)
            cache[key] = [record(system, built.benchmark)
                          for built in series]
        return cache[key]

    return runs


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
def test_stream_windows_equal_reference_fold(series, reference_stream,
                                             arch, window):
    expected = _dicts(ReferenceWindows(reference_stream(arch),
                                       window).windows)
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
def test_contended_windows_equal_reference_fold(series, reference_stream,
                                                arch, overrides):
    """Broadcast off, the cores contend: most cycles run in the exact
    loop, ports stay staged across 97-cycle window edges and the
    snapshots settle the waiting cores' stalls there."""
    expected = _dicts(ReferenceWindows(reference_stream(arch, **overrides),
                                       97).windows)
    assert sum(window["stalls"] for window in expected) > 1000
    for label, (fast_forward, blocks) in MODES.items():
        windows, _ = _snapshot_stream(arch, series, 97, fast_forward,
                                      blocks, overrides)
        assert windows == expected, label


def test_dead_core_degradation_windows_equal_reference_fold(monkeypatch):
    """``measure_degradation``'s two dead-core passes, windowed at 97
    cycles, against the reference loop's runs of the same two passes
    on one system."""
    spec = FaultTrialSpec(trial=0, campaign_seed=2012, arch="ulpmc-bank",
                          n_samples=64, n_measurements=32)
    golden = golden_run(spec)
    attach = WindowedAggregator.attach
    run = MultiCoreSystem.run
    aggregators, passes = [], []

    def recording_attach(bus, window_cycles, deadline_budget_cycles):
        aggregators.append(attach(bus, 97, deadline_budget_cycles))
        return aggregators[-1]

    def recording_run(system, benchmark, faults=None, **kwargs):
        passes.append((benchmark, list(faults.pending)))
        return run(system, benchmark, faults=faults, **kwargs)

    monkeypatch.setattr(WindowedAggregator, "attach", recording_attach)
    monkeypatch.setattr(MultiCoreSystem, "run", recording_run)
    report = measure_degradation(spec, golden, dead_core=2)
    monkeypatch.undo()
    (shipped,) = aggregators
    assert len(passes) == 2
    assert shipped.windows[-1].end_cycle == report["degraded_cycles"]
    system = build_platform(spec.arch, fast_forward=False)
    runs = [record(system, benchmark,
                   FaultSession(specs, watchdog_window=0))
            for benchmark, specs in passes]
    assert _dicts(shipped.windows) \
        == _dicts(ReferenceWindows(runs, 97).windows)


@pytest.fixture(scope="module")
def stuck_core():
    """A clock-stuck core that dies later: the benchmark, a fault
    session factory and the reference run."""
    built = build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                          huffman_private=True))

    def faults():
        return FaultSession([FaultSpec("stuck", 500, 3),
                             FaultSpec("dead", 4000, 3)],
                            watchdog_window=0)

    return built, faults, record(build_platform("ulpmc-int",
                                                fast_forward=False),
                                 built.benchmark, faults())


@pytest.mark.parametrize("fast_forward", [False, True])
def test_stuck_core_stalls_reach_events_windows_and_registry(stuck_core,
                                                             fast_forward):
    """A clock-stuck core stalls every cycle; each such stall is a
    ``core.stall`` event of the reference loop, so the event folds, the
    metrics registry, the windows and ``SimulationStats`` agree.  The
    core dies later, so the run finishes."""
    built, faults, (log, reference_stats) = stuck_core
    system = build_platform("ulpmc-int", fast_forward=fast_forward)
    aggregator = WindowedAggregator.attach(system.probe_bus(),
                                           window_cycles=1024)
    metrics = ProbeMetrics.attach(system.probe_bus())
    stats = system.run(built.benchmark, faults=faults()).stats
    assert stats == reference_stats
    assert stats.cores[3].stall_cycles >= 3500
    for window in aggregator.windows:
        assert window.stalls == sum(window.core_stalls)
    oracle = ReferenceWindows([(log, reference_stats)], 1024)
    assert _dicts(aggregator.windows) == _dicts(oracle.windows)
    assert sum(window.stalls for window in oracle.windows) \
        == stats.total_stall_cycles
    assert metrics.verify_against(stats) == []
    assert histograms(metrics) == ReferenceMetrics(log).finish()


@pytest.mark.parametrize("overrides", [{"instr_broadcast": False},
                                       {"data_broadcast": False}])
def test_serialised_rounds_equal_reference_folds(overrides):
    """Serialised ulpmc-bank on the default engine: its rounds stop at
    every 97-cycle window edge and fold their sync groups and conflict
    bursts into the metrics sink, so one watched and profiled run
    equals both per-event folds of the reference loop's run."""
    built = build_benchmark(BenchmarkSpec(n_samples=32, n_measurements=16))
    log, reference_stats = record(
        build_platform("ulpmc-bank", fast_forward=False, **overrides),
        built.benchmark)
    system = build_platform("ulpmc-bank", fast_forward=True, **overrides)
    aggregator = WindowedAggregator.attach(system.probe_bus(),
                                           window_cycles=97)
    metrics = ProbeMetrics.attach(system.probe_bus())
    stats = system.run(built.benchmark).stats
    assert stats == reference_stats
    assert system.block_summary()["round_cycles"] \
        >= 0.8 * stats.total_cycles
    assert _dicts(aggregator.windows) \
        == _dicts(ReferenceWindows([(log, reference_stats)], 97).windows)
    assert metrics.verify_against(stats) == []
    assert histograms(metrics) == ReferenceMetrics(log).finish()
