"""The run loops' metrics fold against the per-event reference.

:class:`~repro.obs.metrics.ProbeMetrics` hangs a sink on the probe bus
and the run loops fold its four histograms as they commit cycles:
blocks and loop traces as constants, the exact loop and per-instruction
cycles one entry at a time.  Every test here runs one input with only
``ProbeMetrics`` attached (not observed: blocks and loop traces run)
and compares the histograms with the per-event
:class:`~tests.obs.metrics_reference.ReferenceMetrics` fold of the
reference cycle loop's run of the same input, one run at a time.  Each
reference run is recorded once per module and compared with every
engine and window length.
"""

import pytest

import repro.platform.fast_forward as ff_engine
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.kernels.benchmark import build_block_series
from repro.obs import ProbeMetrics
from repro.platform import ARCH_NAMES, build_platform
from repro.platform.streaming import run_stream
from repro.resilience import FaultSession, FaultSpec
from tests.obs.metrics_reference import histograms, reference_histograms


@pytest.fixture(scope="module")
def tiny_ecg():
    return build_benchmark(BenchmarkSpec(n_samples=32, n_measurements=16))


@pytest.fixture(scope="module")
def small_ecg():
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32,
                                         huffman_private=True))


def _windows(bus, window_cycles):
    if window_cycles:
        bus.window_cycles = window_cycles
        bus.subscribe("telemetry.window", lambda *args: None)


@pytest.fixture(scope="module")
def reference(tiny_ecg):
    """``(arch, **overrides) -> (histograms, stats)`` of the reference
    loop's run of the tiny benchmark, recorded once per module."""
    cache = {}

    def run(arch, **overrides):
        key = (arch, tuple(sorted(overrides.items())))
        if key not in cache:
            cache[key] = reference_histograms(
                build_platform(arch, fast_forward=False, **overrides),
                tiny_ecg.benchmark)
        return cache[key]

    return run


def folded_run(system, benchmark, window_cycles=0, faults=None):
    """The folded histograms of one ``ProbeMetrics``-only run, its
    stats and its engine summary."""
    bus = system.probe_bus()
    metrics = ProbeMetrics.attach(bus)
    _windows(bus, window_cycles)
    assert not bus.observed
    stats = system.run(benchmark, faults=faults).stats
    assert metrics.verify_against(stats) == []
    assert system.ixbar.widths is system.dxbar.widths is None  # unhooked
    return histograms(metrics), stats, system.block_summary()


@pytest.mark.parametrize("window_cycles", [0, 97])
@pytest.mark.parametrize("fast_forward", [False, True])
@pytest.mark.parametrize("overrides", [{}, {"instr_broadcast": False},
                                       {"data_broadcast": False}])
@pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-bank"])
def test_fold_equals_reference(tiny_ecg, reference, arch, overrides,
                               fast_forward, window_cycles):
    """Lockstep and contended, both engines, with and without window
    edges capping block and trace budgets."""
    expected, stats = reference(arch, **overrides)
    measured, folded_stats, _ = folded_run(
        build_platform(arch, fast_forward=fast_forward, **overrides),
        tiny_ecg.benchmark, window_cycles)
    assert folded_stats == stats
    assert measured == expected
    assert sum(expected["sync_group_size"].values()) == stats.total_cycles


@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_profiled_run_keeps_loop_traces(small_ecg, arch):
    """A profiled run takes the benchmarked engine paths: the same
    block and trace cycles as the bare run, and the reference's
    histograms."""
    bare = build_platform(arch)
    bare_stats = bare.run(small_ecg.benchmark).stats
    measured, stats, summary = folded_run(build_platform(arch),
                                          small_ecg.benchmark)
    assert stats == bare_stats
    assert summary["trace_cycles"] > 0
    for tier in ("block_cycles", "trace_cycles", "entries",
                 "trace_entries"):
        assert summary[tier] == bare.block_summary()[tier], tier
    expected, _ = reference_histograms(
        build_platform(arch, fast_forward=False), small_ecg.benchmark)
    assert measured == expected
    assert measured["sync_group_size"][1] >= summary["trace_cycles"]


@pytest.mark.parametrize("switch", ["instr_broadcast", "data_broadcast"])
@pytest.mark.parametrize("arch", ["ulpmc-int", "ulpmc-bank"])
def test_desync_ablations_fold_conflict_bursts(tiny_ecg, reference, arch,
                                               switch):
    """The broadcast ablations: cores lose lockstep and conflict in
    runs of consecutive cycles."""
    expected, stats = reference(arch, **{switch: False})
    assert expected["conflict_burst_length"]
    assert max(expected["sync_group_size"]) > 1
    for fast_forward in (False, True):
        measured, folded_stats, _ = folded_run(
            build_platform(arch, fast_forward=fast_forward,
                           **{switch: False}), tiny_ecg.benchmark)
        assert folded_stats == stats
        assert measured == expected, fast_forward


def _stuck_then_dead():
    return FaultSession([FaultSpec("stuck", 500, 3),
                         FaultSpec("dead", 4000, 3)], watchdog_window=0)


@pytest.fixture(scope="module")
def stuck_then_dead_reference(small_ecg):
    return reference_histograms(
        build_platform("ulpmc-int", fast_forward=False),
        small_ecg.benchmark, faults=_stuck_then_dead())


@pytest.mark.parametrize("fast_forward", [False, True])
def test_stuck_then_dead_fault_run(small_ecg, stuck_then_dead_reference,
                                   fast_forward):
    """A clock-stuck core stalls at its PC (mid-instruction: its
    latched fetch PC) until it dies; the fold follows both."""
    expected, stats = stuck_then_dead_reference
    measured, folded_stats, _ = folded_run(
        build_platform("ulpmc-int", fast_forward=fast_forward),
        small_ecg.benchmark, faults=_stuck_then_dead())
    assert folded_stats == stats
    assert stats.cores[3].stall_cycles >= 3500
    assert measured == expected


def test_two_block_stream_folds_each_run(small_ecg):
    """A streamed run folds block by block; each block's histograms
    equal the reference's for that block (a conflict burst never
    spans two runs)."""
    series = build_block_series(small_ecg.spec, n_blocks=2)
    system = build_platform("ulpmc-bank", fast_forward=False,
                            instr_broadcast=False)
    expected = [reference_histograms(system, built.benchmark)[0]
                for built in series]
    system = build_platform("ulpmc-bank", instr_broadcast=False)
    collector = ProbeMetrics.attach(system.probe_bus())
    cumulative = []
    system.probe_bus().subscribe(
        "block.done",
        lambda index, stats: cumulative.append(histograms(collector)))
    run_stream("ulpmc-bank", series, system=system)
    first, second = cumulative
    assert expected[0] == first
    assert expected[1] == {
        name: {value: count - first[name].get(value, 0)
               for value, count in counts.items()
               if count != first[name].get(value, 0)}
        for name, counts in second.items()}
    assert expected[1]["conflict_burst_length"]


def test_sink_is_not_a_subscriber():
    """The sink alone leaves the bus unobserved; one per bus."""
    from repro.errors import ConfigurationError
    from repro.obs import ProbeBus

    bus = ProbeBus()
    metrics = ProbeMetrics.attach(bus)
    assert bus.metrics is not None and not bus.observed
    with pytest.raises(ConfigurationError):
        ProbeMetrics.attach(bus)
    metrics.detach()
    assert bus.metrics is None and not bus.active


def test_trace_free_engine_folds_the_same(small_ecg, monkeypatch):
    """Blocks without traces (the engine an observed run takes) fold
    the same histograms as blocks with traces."""
    with_traces, stats, summary = folded_run(build_platform("ulpmc-int"),
                                             small_ecg.benchmark)
    assert summary["trace_cycles"] > 0
    monkeypatch.setattr(ff_engine, "LOOP_TRACES", False)
    without, stats_without, summary = folded_run(
        build_platform("ulpmc-int"), small_ecg.benchmark)
    assert summary["trace_cycles"] == 0
    assert stats_without == stats
    assert without == with_traces
