"""The evaluated multi-core platforms.

Three 8-core configurations (paper Sections III and IV):

* ``mc-ref`` — the PATMOS 2011 reference: private per-core instruction
  banks, shared 16-bank data memory behind the D-Xbar.
* ``ulpmc-int`` — the proposed architecture with the instruction memory
  shared through the I-Xbar and *interleaved* across its 8 banks.
* ``ulpmc-bank`` — the proposed architecture with instructions packed into
  the fewest banks and the unused banks power-gated.
"""

from repro.platform.config import (
    ArchConfig,
    ARCH_NAMES,
    MC_REF,
    ULPMC_INT,
    ULPMC_BANK,
    build_config,
)
from repro.platform.fast_forward import FastForwardEngine
from repro.platform.multicore import (
    Benchmark,
    MultiCoreSystem,
    SimulationResult,
    build_platform,
    program_artifacts,
    program_cache_clear,
    program_cache_size,
    program_cache_stats,
)
from repro.platform.stats import SimulationStats
from repro.platform.streaming import StreamReport, run_stream

__all__ = [
    "StreamReport",
    "run_stream",
    "ArchConfig",
    "ARCH_NAMES",
    "MC_REF",
    "ULPMC_INT",
    "ULPMC_BANK",
    "build_config",
    "Benchmark",
    "FastForwardEngine",
    "MultiCoreSystem",
    "SimulationResult",
    "build_platform",
    "program_artifacts",
    "program_cache_clear",
    "program_cache_size",
    "program_cache_stats",
    "SimulationStats",
]
