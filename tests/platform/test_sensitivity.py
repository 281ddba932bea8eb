"""Configuration sensitivity: banking granularity vs conflicts.

DESIGN.md §8: the paper fixes 16 DM banks; these tests check the model
behaves sensibly when that choice varies — more banks spread the
data-dependent Huffman traffic and reduce conflicts, fewer concentrate
it.  (The kernel stays bit-exact in every configuration.)
"""

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.platform import build_platform


@pytest.fixture(scope="module")
def built():
    # Shared Huffman LUTs: the conflict-generating configuration.
    return build_benchmark(BenchmarkSpec(n_samples=64, n_measurements=32))


def run_with_banks(built, dm_banks):
    system = build_platform("ulpmc-int", fast_forward=False, dm_banks=dm_banks,
                            dm_bank_words=32768 // dm_banks)
    result = system.run(built.benchmark)
    verify_result(built, result)
    return result.stats


class TestBankCountSensitivity:
    def test_results_identical_across_bankings(self, built):
        """Functional behaviour is independent of banking (verified
        inside run_with_banks for 8/16/32 banks)."""
        for banks in (8, 16, 32):
            stats = run_with_banks(built, banks)
            assert stats.total_retired > 0

    def test_more_banks_fewer_conflicts(self, built):
        conflicts = {banks: run_with_banks(built, banks).dm_conflict_events
                     for banks in (8, 16, 32)}
        assert conflicts[8] >= conflicts[16] >= conflicts[32]
        assert conflicts[8] > conflicts[32]

    def test_cycles_do_not_improve_with_fewer_banks(self, built):
        cycles = {banks: run_with_banks(built, banks).total_cycles
                  for banks in (8, 16, 32)}
        assert cycles[8] >= cycles[16] >= cycles[32]


class TestSharedSplitSensitivity:
    """The compile-time shared/private split (paper Section III-D)."""

    def test_wider_shared_section_still_correct(self, built):
        system = build_platform("ulpmc-int", fast_forward=False,
                                dm_shared_words_per_bank=1024)
        verify_result(built, system.run(built.benchmark))

    def test_too_small_shared_section_rejected(self, built):
        from repro.errors import SimulationError
        system = build_platform("ulpmc-int", fast_forward=False,
                                dm_shared_words_per_bank=32)
        with pytest.raises(SimulationError):
            system.run(built.benchmark)
