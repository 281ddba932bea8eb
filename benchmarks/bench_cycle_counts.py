"""Regenerates the Section IV-C2 cycle/IM-access study and times the
cycle-accurate simulator itself (the heaviest computation in the repo)."""

from benchmarks.conftest import show
from repro.experiments import cycles
from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.platform import build_platform


def test_cycle_counts_reproduction(benchmark):
    result = cycles.run()
    show(result)

    built = build_benchmark(BenchmarkSpec(n_samples=32, n_measurements=16,
                                          huffman_private=True))

    def simulate():
        system = build_platform("ulpmc-bank", fast_forward=False)
        outcome = system.run(built.benchmark)
        verify_result(built, outcome)
        return outcome.stats

    stats = benchmark(simulate)
    assert stats.im_banks_gated == 7
    reduction = 1 - stats.im_bank_accesses / stats.im_fetches
    assert reduction > 0.75
