"""Pinned results of the full paper-geometry benchmark.

These are *our* measured values for the 512-sample, 8-lead reference
benchmark (they share the session-cached calibration runs).  They pin
the reproduction against silent regressions: if a refactor changes any
of these, the paper comparisons in EXPERIMENTS.md move too, and the
change must be deliberate.
"""

import pytest

from repro.platform import ARCH_NAMES
from repro.power.calibration import reference_results


@pytest.fixture(scope="module")
def runs():
    return {arch: reference_results(arch, fast_forward=False)[1]
            for arch in ARCH_NAMES}


class TestPinnedCycleCounts:
    def test_footprints(self, runs):
        """Fidelity gap: the re-implemented CS + Huffman kernel is 267 B
        of program; the paper's original is 552 B."""
        built, __ = reference_results("mc-ref", fast_forward=False)
        assert built.benchmark.meta["program_bytes"] == 267
        assert built.benchmark.meta["read_only_bytes"] == 14336
        assert built.benchmark.meta["working_bytes"] == 4098

    def test_mcref(self, runs):
        stats = runs["mc-ref"].stats
        assert stats.total_cycles == 66816
        assert stats.im_bank_accesses == stats.im_fetches == 534153
        assert stats.im_conflict_events == 0

    def test_ulpmc_int(self, runs):
        stats = runs["ulpmc-int"].stats
        assert stats.total_cycles == pytest.approx(67193, abs=5)
        assert stats.im_fetches == 534153
        assert 0.80 < 1 - stats.im_bank_accesses / stats.im_fetches < 0.90

    def test_ulpmc_bank(self, runs):
        stats = runs["ulpmc-bank"].stats
        assert stats.total_cycles == pytest.approx(68862, abs=5)
        assert stats.im_banks_gated == 7
        reduction = 1 - stats.im_bank_accesses / stats.im_fetches
        assert reduction == pytest.approx(0.871, abs=0.01)

    def test_dm_identical_across_architectures(self, runs):
        """The data side is architecture-independent by design."""
        accesses = {arch: run.stats.dm_bank_accesses
                    for arch, run in runs.items()}
        assert len(set(accesses.values())) == 1

    def test_deliveries_balance(self, runs):
        for run in runs.values():
            stats = run.stats
            assert stats.dm_reads_delivered == 108544
            assert stats.dm_writes_delivered == 52229
