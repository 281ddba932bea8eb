"""Streaming / duty-cycled multi-block operation."""

import pytest

from repro.errors import ConfigurationError
from repro.kernels.benchmark import BenchmarkSpec, build_block_series
from repro.platform import build_platform
from repro.platform.streaming import SAMPLE_RATE_HZ, run_stream


def exact_stream(arch, series, clock_hz):
    """``run_stream`` on the exact loop, the engine these tests pin."""
    return run_stream(arch, series, clock_hz=clock_hz,
                      system=build_platform(arch, fast_forward=False))


@pytest.fixture(scope="module")
def series():
    return build_block_series(
        BenchmarkSpec(n_samples=64, n_measurements=32,
                      huffman_private=True), n_blocks=3)


class TestBlockSeries:
    def test_blocks_share_tables_and_program(self, series):
        first, second = series[0], series[1]
        assert first.matrix is second.matrix
        assert first.code is second.code
        assert first.benchmark.program is second.benchmark.program

    def test_blocks_carry_different_samples(self, series):
        assert series[0].golden[0].samples != series[1].golden[0].samples

    def test_consecutive_slices_of_one_recording(self, series):
        """Blocks are windows of one continuous recording, not
        re-generated signals."""
        from repro.biosignal.ecg import ECGGenerator
        spec = series[0].spec
        recording = ECGGenerator(n_leads=spec.n_leads,
                                 seed=spec.seed).generate(
            spec.n_samples * len(series))
        for index, built in enumerate(series):
            window = recording[0, index * spec.n_samples:
                               (index + 1) * spec.n_samples]
            assert built.golden[0].samples == [int(v) for v in window]

    def test_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            build_block_series(BenchmarkSpec(), n_blocks=0)
        with pytest.raises(ValueError):
            build_block_series(BenchmarkSpec(), n_samples=64)


class TestStreaming:
    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-bank"])
    def test_every_block_verified(self, arch, series):
        report = exact_stream(arch, series, clock_hz=1e6)
        assert len(report.blocks) == 3
        assert report.total_retired > 0

    def test_per_block_stats_are_independent(self, series):
        """The stats window resets at each block load."""
        report = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        cycles = report.cycles_per_block
        assert max(cycles) < 2 * min(cycles)
        for block in report.blocks:
            assert block.stats.im_banks_gated == 7

    def test_real_time_accounting(self, series):
        spec = series[0].spec
        period = spec.n_samples / SAMPLE_RATE_HZ
        report = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        assert report.block_period_s == pytest.approx(period)
        assert report.real_time
        assert 0 < report.utilisation < 1
        # At exactly the minimum real-time clock, utilisation hits 1.
        tight = exact_stream("ulpmc-bank", series,
                             clock_hz=report.min_real_time_clock_hz)
        assert tight.utilisation == pytest.approx(1.0)

    def test_too_slow_clock_misses_deadlines(self, series):
        report = exact_stream("ulpmc-bank", series, clock_hz=1e4)
        assert not report.real_time

    def test_mean_stats(self, series):
        report = exact_stream("ulpmc-int", series, clock_hz=1e6)
        means = report.mean_stats()
        assert means["cycles"] > 0
        assert 0 < means["sync_fraction"] <= 1

    def test_guards(self, series):
        with pytest.raises(ConfigurationError):
            exact_stream("mc-ref", [], clock_hz=1e6)
        with pytest.raises(ConfigurationError):
            exact_stream("mc-ref", series, clock_hz=0)


class TestDeadlineReporting:
    def test_budget_and_per_block_utilisation(self, series):
        report = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        assert report.deadline_budget_cycles == pytest.approx(
            1e6 * report.block_period_s)
        for index, cycles in enumerate(report.cycles_per_block):
            assert report.block_utilisation(index) == pytest.approx(
                cycles / report.deadline_budget_cycles)

    def test_fast_clock_misses_nothing(self, series):
        report = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        assert report.missed_blocks == []
        assert report.deadline_misses == 0
        assert report.real_time

    def test_slow_clock_misses_every_block(self, series):
        report = exact_stream("ulpmc-bank", series, clock_hz=1e4)
        assert report.missed_blocks == [0, 1, 2]
        assert report.deadline_misses == len(series)
        assert not report.real_time

    def test_threshold_clock_separates_blocks(self, series):
        """A clock between the cheapest and the costliest block misses
        exactly the blocks over budget."""
        report = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        cycles = report.cycles_per_block
        if min(cycles) == max(cycles):
            pytest.skip("blocks happen to cost identical cycles")
        threshold_hz = (min(cycles) + 0.5) / report.block_period_s
        tight = exact_stream("ulpmc-bank", series, clock_hz=threshold_hz)
        expected = [index for index, c in enumerate(cycles)
                    if c > min(cycles)]
        assert tight.missed_blocks == expected

    def test_deadline_report_text(self, series):
        slow = exact_stream("ulpmc-bank", series, clock_hz=1e4)
        text = slow.deadline_report()
        lines = text.splitlines()
        assert lines[0].startswith("ulpmc-bank @")
        assert len(lines) == len(series) + 2
        assert all("MISS" in line for line in lines[1:-1])
        assert lines[-1].endswith(f"{len(series)}/{len(series)}")
        ok = exact_stream("ulpmc-bank", series, clock_hz=1e6)
        assert "MISS" not in ok.deadline_report()
