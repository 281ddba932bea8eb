"""Regenerates the mechanism-ablation study (extension, DESIGN.md §8)."""

from benchmarks.conftest import show
from repro.experiments import ablations
from repro.power.calibration import reference_results


def test_ablations_reproduction(benchmark):
    result = ablations.run()
    show(result)
    assert result.max_relative_error() < 0.05

    def summarise():
        __, reference = reference_results("ulpmc-bank")
        stats = reference.stats
        return stats.im_bank_accesses / stats.im_fetches

    ratio = benchmark(summarise)
    assert ratio < 0.2  # broadcast collapses >80% of fetch accesses
