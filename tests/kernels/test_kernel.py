"""The CS + Huffman kernel: bit-exact against the golden Python models."""

import pytest

from repro.kernels import (
    BenchmarkSpec,
    build_benchmark,
    kernel_source,
    verify_result,
)
from repro.kernels.memmap import BenchmarkMemoryMap
from repro.platform import build_platform
from repro.tamarisc import InstructionSetSimulator, assemble

ARCHES = ("mc-ref", "ulpmc-int", "ulpmc-bank")


class TestProgramProperties:
    def test_program_is_compact_single_image(self, small_built):
        program = small_built.benchmark.program
        assert program.size_bytes < 552  # paper benchmark: 552 B
        assert program.entry == program.symbol("start")

    def test_uses_only_the_eleven_instructions(self, small_built):
        from repro.tamarisc.isa import Op
        ops = {instr.op for instr in small_built.benchmark.program.decoded()}
        assert ops <= set(Op)
        assert Op.BR in ops and Op.HLT in ops and Op.MOV in ops

    def test_kernel_source_renders_for_paper_geometry(self):
        source = kernel_source(BenchmarkMemoryMap())
        program = assemble(source, entry="start")
        assert len(program) > 50


class TestGoldenOnISS:
    """Single-core check: run the kernel on the flat-memory ISS."""

    def test_iss_matches_golden_model(self, small_built):
        built = small_built
        memmap = built.memmap
        bench = built.benchmark
        data = dict(bench.data.shared)
        data.update(bench.data.private[0])
        iss = InstructionSetSimulator(bench.program, data=data)
        iss.core.pc = bench.program.entry
        iss.run(max_cycles=2_000_000)
        golden = built.golden[0]
        measured_y = iss.read_block(memmap.y_base, memmap.n_measurements)
        assert measured_y == golden.measurements
        assert iss.read(memmap.out_base) == golden.total_bits
        assert iss.read_block(memmap.out_base + 1, len(golden.bitstream)) \
            == golden.bitstream


class TestMultiCoreGolden:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_all_architectures_bit_exact(self, arch, small_built):
        result = build_platform(arch, fast_forward=False).run(
            small_built.benchmark)
        verify_result(small_built, result)

    @pytest.mark.parametrize("arch", ARCHES)
    def test_private_lut_variant_bit_exact(self, arch,
                                           small_built_private):
        result = build_platform(arch, fast_forward=False).run(
            small_built_private.benchmark)
        verify_result(small_built_private, result)

    def test_ablations_remain_functionally_correct(self, small_built):
        """Broadcast knobs change timing, never results."""
        for overrides in ({"data_broadcast": False},
                          {"instr_broadcast": False},
                          {"data_broadcast": False,
                           "instr_broadcast": False}):
            system = build_platform("ulpmc-bank", fast_forward=False,
                                    **overrides)
            verify_result(small_built, system.run(small_built.benchmark))


class TestPaperNarrative:
    """The architectural effects Section IV-C2 describes, at small scale."""

    def test_cycle_ordering(self, small_results):
        ref = small_results["mc-ref"].stats.total_cycles
        interleaved = small_results["ulpmc-int"].stats.total_cycles
        banked = small_results["ulpmc-bank"].stats.total_cycles
        assert ref <= interleaved <= banked
        assert banked < 1.25 * ref  # modest overhead, not serialisation

    def test_instruction_broadcast_saves_most_fetch_accesses(self,
                                                             small_results):
        for arch in ("ulpmc-int", "ulpmc-bank"):
            stats = small_results[arch].stats
            reduction = 1 - stats.im_bank_accesses / stats.im_fetches
            assert reduction > 0.75

    def test_mcref_has_one_access_per_fetch(self, small_results):
        stats = small_results["mc-ref"].stats
        assert stats.im_bank_accesses == stats.im_fetches

    def test_private_luts_restore_synchronisation(self, small_built,
                                                  small_built_private):
        shared = build_platform("ulpmc-bank", fast_forward=False).run(
            small_built.benchmark).stats
        private = build_platform("ulpmc-bank", fast_forward=False).run(
            small_built_private.benchmark).stats
        assert private.total_cycles < shared.total_cycles
        assert private.dm_conflict_events < shared.dm_conflict_events

    def test_private_to_shared_access_mix(self, small_results):
        """Paper Section III-D: roughly 3/4 private, 1/4 shared."""
        fraction = small_results["mc-ref"].stats.private_access_fraction
        assert 0.55 <= fraction <= 0.85

    def test_cs_phase_keeps_cores_synchronised(self, small_results):
        assert small_results["ulpmc-int"].stats.sync_fraction > 0.6

    def test_gated_banks(self, small_results):
        assert small_results["ulpmc-bank"].stats.im_banks_gated == 7


class TestSpecHandling:
    def test_spec_and_overrides_are_exclusive(self):
        with pytest.raises(ValueError):
            build_benchmark(BenchmarkSpec(), n_samples=64)

    def test_overrides_build(self):
        built = build_benchmark(n_samples=32, n_measurements=16, n_leads=2)
        assert built.spec.n_leads == 2
        assert len(built.golden) == 2
