"""Shared fixtures: small benchmark instances and cached platform runs."""

from __future__ import annotations

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark
from repro.platform import build_platform


@pytest.fixture(scope="session")
def small_spec() -> BenchmarkSpec:
    """A reduced-geometry benchmark: same kernel, fast to simulate."""
    return BenchmarkSpec(n_samples=64, n_measurements=32)


@pytest.fixture(scope="session")
def small_built(small_spec):
    return build_benchmark(small_spec)


@pytest.fixture(scope="session")
def small_built_private():
    return build_benchmark(
        BenchmarkSpec(n_samples=64, n_measurements=32,
                      huffman_private=True))


@pytest.fixture(scope="session")
def small_results(small_built):
    """Simulation results of the small benchmark on all three platforms."""
    results = {}
    for arch in ("mc-ref", "ulpmc-int", "ulpmc-bank"):
        results[arch] = build_platform(arch, fast_forward=False).run(
            small_built.benchmark)
    return results
