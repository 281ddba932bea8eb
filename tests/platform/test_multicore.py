"""Multi-core platform: functional correctness and timing behaviour."""

import gc
import weakref

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.memory.layout import PRIVATE_BASE
from repro.platform import Benchmark, build_platform
from repro.tamarisc import InstructionSetSimulator, assemble
from repro.tamarisc.program import DataImage

ARCHES = ("mc-ref", "ulpmc-int", "ulpmc-bank")

#: The broadcast ablations.
BROADCASTS = [{}, {"instr_broadcast": False}, {"data_broadcast": False},
              {"instr_broadcast": False, "data_broadcast": False}]


@pytest.fixture(scope="module")
def tiny_built():
    return build_benchmark(BenchmarkSpec(n_samples=32, n_measurements=16))


def simple_benchmark():
    """Each core sums 8 shared and 8 private words into private memory."""
    source = f"""
    .equ PRIV, {PRIVATE_BASE}
    start:
        mov  r1, #0
        mov  r2, #8
        mov  r3, #0
    sh:
        add  r3, r3, [r1++]
        sub  r2, r2, #1
        bne  sh
        li   r1, PRIV
        mov  r2, #8
        mov  r4, #0
    pv:
        add  r4, r4, [r1++]
        sub  r2, r2, #1
        bne  pv
        li   r5, PRIV+64
        mov  [r5++], r3
        mov  [r5], r4
        hlt
    """
    data = DataImage()
    data.set_shared_block(0, range(10, 18))
    for core in range(8):
        data.set_private_block(core, PRIVATE_BASE,
                               [core * 100 + i for i in range(8)])
    return Benchmark("simple", assemble(source, entry="start"), data)


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_results_correct_on_every_architecture(self, arch):
        bench = simple_benchmark()
        system = build_platform(arch, fast_forward=False)
        system.run(bench)
        shared_sum = sum(range(10, 18))
        for core in range(8):
            assert system.read_logical(core, PRIVATE_BASE + 64) \
                == shared_sum
            assert system.read_logical(core, PRIVATE_BASE + 65) \
                == sum(core * 100 + i for i in range(8))

    def test_architectures_agree_with_iss(self):
        """Single-core golden: the multicore result equals the ISS run on
        a flat memory (core 0's view)."""
        bench = simple_benchmark()
        iss_data = dict(bench.data.shared)
        iss_data.update(bench.data.private[0])
        iss = InstructionSetSimulator(bench.program, data=iss_data)
        iss.run()
        system = build_platform("ulpmc-bank", fast_forward=False)
        system.run(bench)
        assert system.read_logical(0, PRIVATE_BASE + 64) \
            == iss.read(PRIVATE_BASE + 64)
        assert system.read_logical(0, PRIVATE_BASE + 65) \
            == iss.read(PRIVATE_BASE + 65)


class TestTiming:
    def test_lockstep_run_has_no_stalls(self):
        bench = simple_benchmark()
        result = build_platform("mc-ref", fast_forward=False).run(bench)
        assert result.stats.total_stall_cycles == 0
        assert result.stats.sync_cycles == result.stats.total_cycles

    def test_instruction_broadcast_collapses_im_accesses(self):
        bench = simple_benchmark()
        ref = build_platform("mc-ref", fast_forward=False).run(bench).stats
        shared = build_platform("ulpmc-int", fast_forward=False).run(
            bench).stats
        assert ref.im_bank_accesses == ref.im_fetches
        assert shared.im_bank_accesses * 8 == shared.im_fetches
        assert shared.total_cycles == ref.total_cycles

    def test_broadcast_off_serialises_shared_reads(self):
        bench = simple_benchmark()
        on = build_platform("ulpmc-int", fast_forward=False).run(bench).stats
        off = build_platform("ulpmc-int", fast_forward=False,
                             data_broadcast=False).run(bench).stats
        assert off.total_cycles > on.total_cycles
        assert off.dm_bank_accesses > on.dm_bank_accesses

    def test_power_gating_state(self):
        bench = simple_benchmark()
        result = build_platform("ulpmc-bank", fast_forward=False).run(bench)
        assert result.stats.im_banks_gated == 7
        assert result.stats.im_banks_used == 1
        result = build_platform("ulpmc-int", fast_forward=False).run(bench)
        assert result.stats.im_banks_gated == 0


class TestStatsConsistency:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_conservation_laws(self, arch, small_built):
        stats = build_platform(arch, fast_forward=False).run(
            small_built.benchmark).stats
        # Every core's retired instructions were fetched exactly once.
        assert stats.im_fetches == stats.total_retired
        # Broadcast merging never invents accesses.
        assert stats.im_bank_accesses \
            == stats.im_fetches - stats.im_broadcast_savings
        assert stats.dm_bank_accesses \
            == stats.dm_deliveries - stats.dm_broadcast_savings
        # Single-issue cores: every cycle until its halt, a core either
        # retires or stalls.
        for core_stats in stats.cores:
            assert core_stats.retired + core_stats.stall_cycles \
                == core_stats.halted_at <= stats.total_cycles
        # MMU translations equal data-port commits.
        assert stats.dm_private_accesses + stats.dm_shared_accesses \
            == stats.dm_deliveries

    @pytest.mark.parametrize("fast_forward", [False, True])
    @pytest.mark.parametrize("overrides", BROADCASTS)
    @pytest.mark.parametrize("arch", ARCHES)
    def test_im_accesses_bounded_by_banks_in_use(self, arch, overrides,
                                                 fast_forward, tiny_built):
        """A bank serves at most one access per cycle, so IM accesses
        never exceed the cycles times the banks holding the program.
        ulpmc-bank packs the program into one bank: at most one IM
        access per cycle, with or without broadcast."""
        stats = build_platform(arch, fast_forward=fast_forward,
                               **overrides).run(tiny_built.benchmark).stats
        assert stats.im_bank_accesses \
            <= stats.total_cycles * stats.im_banks_used
        if arch == "ulpmc-bank":
            assert stats.im_banks_used == 1
            assert stats.im_bank_accesses <= stats.total_cycles

    def test_summary_renders(self, small_results):
        text = small_results["ulpmc-bank"].stats.summary()
        assert "ulpmc-bank" in text
        assert "IM banks used/gated : 1/7" in text


class TestMemory:
    @pytest.mark.parametrize("fast_forward", [False, True])
    def test_finished_system_freed_without_cycle_collector(self,
                                                           fast_forward):
        """No reference cycle runs through a system (its fast-forward
        engine holds it weakly): with the cyclic collector off, finished
        systems would otherwise pile up, each with its memory images."""
        gc.disable()
        try:
            system = build_platform("ulpmc-bank", fast_forward=fast_forward)
            system.run(simple_benchmark())
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            gc.enable()


class TestEngineDefault:
    def test_default_is_the_fast_forward_engine(self):
        system = build_platform("mc-ref")
        system.load(simple_benchmark())
        assert system.fast_forward
        assert system._ff_engine is not None

    def test_exact_loads_no_engine(self):
        system = build_platform("mc-ref", fast_forward=False)
        system.load(simple_benchmark())
        assert system._ff_engine is None


class TestGuards:
    def test_empty_program_rejected(self):
        bench = Benchmark("empty", assemble(""), DataImage())
        with pytest.raises(ConfigurationError):
            build_platform("mc-ref", fast_forward=False).load(bench)

    def test_runaway_detected(self):
        bench = Benchmark("spin", assemble("loop: bra loop"), DataImage())
        with pytest.raises(SimulationError, match="did not finish"):
            build_platform("mc-ref", fast_forward=False).run(
                bench, max_cycles=1000)

    def test_run_without_benchmark_rejected(self):
        with pytest.raises(ConfigurationError, match="no benchmark"):
            build_platform("mc-ref", fast_forward=False).run()

    def test_program_beyond_private_bank_rejected(self):
        program = assemble("\n".join(["nop"] * 5000))
        bench = Benchmark("big", program, DataImage())
        with pytest.raises(ConfigurationError, match="exceeds"):
            build_platform("mc-ref", fast_forward=False).load(bench)
