"""The power characterisation framework (paper Fig. 4).

The paper's flow generates the design, runs the benchmark post-layout and
feeds the activity trace into power analysis.  Ours runs the reference
CS + Huffman benchmark on the three simulated platforms, then calibrates:

1. per-event energies from Table II and the simulated activity rates;
2. the post-layout factor from the Fig. 7 anchor (mc-ref consumes
   397.4 mW at the 636.9 MOps/s workload every design can reach);
3. the leakage budget from the Fig. 8 crossover (leakage == dynamic
   around 50 kOps/s at minimum supply) and the 38.8 % gating saving.

Everything downstream (experiments, benchmarks) consumes one cached
:class:`CalibratedSet` per engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.kernels.benchmark import BenchmarkSpec, BuiltBenchmark, \
    build_benchmark, verify_result
from repro.platform.config import ARCH_NAMES, ArchConfig, build_config
from repro.platform.multicore import MultiCoreSystem, SimulationResult
from repro.power.area import AreaModel
from repro.power.components import (
    ComponentEnergies,
    LEAKAGE_CROSSOVER_OPS,
    LeakageBudget,
    calibrate_energies,
    calibrate_leakage,
)
from repro.power.dvfs import DVFSPolicy, NOMINAL_PERIOD_NS
from repro.power.power_model import PowerModel
from repro.power.technology import TechnologyModel, make_technology

#: Fig. 7 absolute anchor: mc-ref power at the highest workload reachable
#: by all three designs (636.9 MOps/s).
FIG7_ANCHOR_WORKLOAD_OPS = 636.9e6
FIG7_ANCHOR_POWER_W = 397.4e-3


@lru_cache(maxsize=32)  # `repro experiment all` reads 14 runs per engine
def verified_run(config: ArchConfig, spec: BenchmarkSpec,
                 fast_forward: bool) -> tuple[BuiltBenchmark,
                                              SimulationResult]:
    """Simulate one benchmark on one platform, verified bit-exactly.

    Returns ``(built_benchmark, SimulationResult)``.  Every reference
    simulation behind the experiments goes through this one cache, keyed
    on the full configuration, the benchmark geometry and the engine, so
    a run two experiments share is simulated once per engine.
    """
    built = build_benchmark(spec)
    result = MultiCoreSystem(config, fast_forward=fast_forward).run(
        built.benchmark)
    verify_result(built, result)
    return built, result


def reference_results(arch: str, huffman_private: bool = True,
                      data_broadcast: bool = True,
                      instr_broadcast: bool = True, *,
                      fast_forward: bool = True):
    """The full-geometry reference run of one architecture (cached).

    Returns ``(built_benchmark, SimulationResult)`` from
    :func:`verified_run`.  A switched-off broadcast becomes a config
    override; mc-ref has no instruction broadcast to switch off, so its
    ``instr_broadcast=False`` query hits the same cache entry as its
    query with the broadcast on.
    """
    overrides = {}
    if not data_broadcast:
        overrides["data_broadcast"] = False
    if not instr_broadcast:
        overrides["instr_broadcast"] = False
    return verified_run(build_config(arch, **overrides),
                        BenchmarkSpec(huffman_private=huffman_private),
                        fast_forward)


@dataclass(frozen=True)
class CalibratedSet:
    """Everything the experiments need, calibrated and cross-checked."""

    technology: TechnologyModel
    energies: ComponentEnergies
    leakage: LeakageBudget
    post_layout_factor: float
    built: BuiltBenchmark
    results: dict[str, SimulationResult]

    # -- benchmark-level quantities ------------------------------------------------

    @property
    def ops_per_block(self) -> int:
        """Useful operations per block: the mc-ref instruction count."""
        return self.results["mc-ref"].stats.total_retired

    def cycles(self, arch: str) -> int:
        return self.results[arch].stats.total_cycles

    def ops_per_cycle(self, arch: str) -> float:
        """Delivered useful operations per cycle on one architecture."""
        return self.ops_per_block / self.cycles(arch)

    def max_workload(self, arch: str,
                     period_ns: float = NOMINAL_PERIOD_NS) -> float:
        """Peak throughput at nominal supply (paper: 664.5 / 662.3 /
        636.9 MOps/s)."""
        return self.ops_per_cycle(arch) * 1e9 / period_ns

    # -- models ---------------------------------------------------------------------

    def power_model(self, arch: str) -> PowerModel:
        result = self.results[arch]
        return PowerModel(
            config=result.system.config,
            stats=result.stats,
            energies=self.energies,
            leakage=self.leakage,
            technology=self.technology,
            post_layout_factor=self.post_layout_factor,
        )

    def dvfs(self, period_ns: float = NOMINAL_PERIOD_NS) -> DVFSPolicy:
        return DVFSPolicy(self.technology, period_ns=period_ns)

    def workload_power(self, arch: str, workload_ops: float,
                       post_layout: bool = True) -> float:
        """Total power (W) of one architecture at one workload (Fig. 7)."""
        policy = self.dvfs()
        point = policy.operating_point(workload_ops,
                                       self.ops_per_cycle(arch))
        return self.power_model(arch).total_power(
            point.frequency_hz, point.voltage, post_layout=post_layout)


def calibrated_set(fast_forward: bool = True) -> CalibratedSet:
    """Build the default calibrated model set (cached per engine)."""
    # ``lru_cache`` keys ``()``, ``(True,)`` and ``fast_forward=True``
    # apart; one normalised key keeps one set per engine.
    return _calibrated_set(bool(fast_forward))


@lru_cache(maxsize=2)
def _calibrated_set(fast_forward: bool) -> CalibratedSet:
    runs = {name: reference_results(name, fast_forward=fast_forward)
            for name in ARCH_NAMES}
    built = runs["mc-ref"][0]
    results = {name: result for name, (__, result) in runs.items()}
    technology = make_technology()
    energies = calibrate_energies(
        results["mc-ref"].stats.activity_rates(),
        results["ulpmc-int"].stats.activity_rates(),
        results["ulpmc-bank"].stats.activity_rates(),
    )

    # Post-layout factor: match the Fig. 7 anchor with the mc-ref model.
    interim = CalibratedSet(
        technology=technology, energies=energies,
        leakage=LeakageBudget(0.0, 0.0, 0.0), post_layout_factor=1.0,
        built=built, results=results)
    policy = interim.dvfs()
    point = policy.operating_point(FIG7_ANCHOR_WORKLOAD_OPS,
                                   interim.ops_per_cycle("mc-ref"))
    table_domain = interim.power_model("mc-ref").dynamic_power(
        point.frequency_hz, point.voltage, post_layout=False).total
    post_layout_factor = FIG7_ANCHOR_POWER_W / table_domain

    # Leakage: equal to dynamic power at the 50 kOps/s crossover, v_min.
    crossover = policy.operating_point(LEAKAGE_CROSSOVER_OPS,
                                       interim.ops_per_cycle("mc-ref"))
    dynamic_at_crossover = interim.power_model("mc-ref").dynamic_power(
        crossover.frequency_hz, crossover.voltage,
        post_layout=False).total * post_layout_factor
    leak_nominal = dynamic_at_crossover \
        / technology.leakage_scale(technology.v_min)
    mcref_area = AreaModel(results["mc-ref"].system.config)
    leakage = calibrate_leakage(leak_nominal,
                                logic_kge_mcref=mcref_area.logic_kge())

    return CalibratedSet(
        technology=technology,
        energies=energies,
        leakage=leakage,
        post_layout_factor=post_layout_factor,
        built=built,
        results=results,
    )
