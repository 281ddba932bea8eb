"""Differential testing: ISS vs cycle-accurate platform (paper Fig. 4).

The paper cross-verifies its LISA simulator against the generated HDL
with a custom regression suite; here constrained-random programs run on
the functional ISS and on every core of the cycle-accurate platform, and
the full architectural outcome must match exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.layout import PRIVATE_BASE
from repro.tamarisc.dispatch import compile_program
from repro.tamarisc.isa import (
    BranchMode,
    Cond,
    DstMode,
    Op,
    SRC_MEM_MODES,
)
from repro.tamarisc.iss import ISSStats, InstructionSetSimulator
from repro.tamarisc.regression import (
    SANDBOX_WORDS,
    cross_check,
    generate_random_program,
    run_on_iss,
    run_on_platform,
)


def _sandbox(seed):
    rng = random.Random(seed)
    return {PRIVATE_BASE + i: rng.randrange(0x10000)
            for i in range(SANDBOX_WORDS)}


def _run_dispatch(program, data):
    """Run ``program`` on one core through the dispatch table alone,
    over the ISS's flat data memory; ``(core, stats, dmem)``.

    The ISS's :meth:`~InstructionSetSimulator.step` loop with each
    instruction's preview and commit taken from the table, so its
    outcome must equal the ISS's generic walk word for word.
    """
    iss = InstructionSetSimulator(program, data=data)
    core, dmem, stats = iss.core, iss.dmem, ISSStats()
    compiled = compile_program(iss.decoded)
    while not core.halted:
        pc = core.pc
        handler = compiled[pc]
        dread = dwrite = value = None
        if handler.preview is not None:
            dread, dwrite = handler.preview(core.regs)
            if dread is not None:
                value = dmem.get(dread, 0)
                stats.dreads += 1
        word = handler.commit(core, value)
        if word is not None:
            dmem[dwrite] = word
            stats.dwrites += 1
        stats.cycles += 1
        stats.ifetches += 1
        if core.pc != ((pc + 1) & 0x7FFF) and not core.halted:
            stats.branches_taken += 1
        assert stats.cycles < 100_000, "program did not halt"
    return core, stats, dmem


class TestGenerator:
    @pytest.mark.parametrize("seed", range(8))
    def test_programs_are_safe_and_terminate(self, seed):
        program = generate_random_program(seed)
        outcome = run_on_iss(program, sandbox_seed=seed)
        assert outcome.retired > 20

    def test_deterministic(self):
        assert generate_random_program(7).words \
            == generate_random_program(7).words

    def test_length_scales(self):
        short = generate_random_program(1, length=10)
        long = generate_random_program(1, length=120)
        assert len(long.words) > len(short.words)


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_platform_matches_iss(self, seed):
        cross_check(seed, length=30)

    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int"])
    def test_other_architectures(self, arch):
        cross_check(17, length=30, arch=arch)

    @given(st.integers(min_value=100, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_seeds_property(self, seed):
        program = generate_random_program(seed, length=25)
        golden = run_on_iss(program, sandbox_seed=seed)
        measured = run_on_platform(program, sandbox_seed=seed,
                                   fast_forward=False)
        assert measured.registers == golden.registers
        assert measured.flags == golden.flags
        assert measured.sandbox == golden.sandbox
        assert measured.retired == golden.retired

    def test_sandbox_was_actually_written(self):
        """The generated programs must exercise stores, not just ALU."""
        seed = 3
        program = generate_random_program(seed, length=60)
        import random
        rng = random.Random(seed)
        initial = [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)]
        outcome = run_on_iss(program, sandbox_seed=seed)
        assert outcome.sandbox != initial


#: Seeds of the full-ISA random corpus used across the classes below.
FULL_COVERAGE_SEEDS = range(20)


class TestFullCoverageGenerator:
    """``full_coverage=True`` must reach the complete ISA surface."""

    def test_corpus_covers_full_isa(self):
        ops, conds, bmodes = set(), set(), set()
        mem_to_mem = 0
        for seed in FULL_COVERAGE_SEEDS:
            program = generate_random_program(seed, length=60,
                                              full_coverage=True)
            for instr in program.decoded():
                ops.add(instr.op)
                if instr.op == Op.BR:
                    conds.add(instr.cond)
                    bmodes.add(instr.bmode)
                elif instr.op == Op.MOV \
                        and instr.s1mode in SRC_MEM_MODES \
                        and instr.dmode != DstMode.REG:
                    mem_to_mem += 1
        assert ops == set(Op), "all 11 opcodes"
        assert conds == set(Cond), "all 15 condition modes"
        assert bmodes == set(BranchMode), "all 3 branch target modes"
        assert mem_to_mem > 0, "memory-to-memory MOV exercised"

    def test_default_mode_output_is_stable(self):
        """The flag must not perturb historical generator output."""
        program = generate_random_program(0)
        import hashlib
        digest = hashlib.sha256(
            b"".join(word.to_bytes(3, "big")
                     for word in program.words)).hexdigest()
        assert digest == ("33ab3c3f460ddd53604b5a6d6511a4d3"
                          "9150aec2156523c5e3ec84c1892b4bb8")

    @pytest.mark.parametrize("seed", FULL_COVERAGE_SEEDS)
    def test_programs_terminate(self, seed):
        program = generate_random_program(seed, length=60,
                                          full_coverage=True)
        outcome = run_on_iss(program, sandbox_seed=seed)
        assert outcome.retired > 20


class TestDispatchEquivalence:
    """The dispatch table and the platform's fast paths retire identical
    state to the generic interpreters over the full-ISA corpus."""

    @pytest.mark.parametrize("seed", FULL_COVERAGE_SEEDS)
    def test_iss_fast_matches_slow(self, seed):
        """Whole programs through the dispatch table (single core,
        flat memory) end in the ISS's architectural state."""
        program = generate_random_program(seed, length=60,
                                          full_coverage=True)
        slow = run_on_iss(program, sandbox_seed=seed)
        core, __, dmem = _run_dispatch(program, _sandbox(seed))
        assert core.retired == slow.retired
        assert core.regs == slow.registers
        assert core.flags.as_tuple() == slow.flags
        assert [dmem.get(PRIVATE_BASE + i, 0)
                for i in range(SANDBOX_WORDS)] == slow.sandbox

    @pytest.mark.parametrize("seed", FULL_COVERAGE_SEEDS)
    def test_iss_fast_stats_match(self, seed):
        """... with the ISS's port counts and the same memory image."""
        program = generate_random_program(seed, length=60,
                                          full_coverage=True)
        slow = InstructionSetSimulator(program, data=_sandbox(seed))
        __, stats, dmem = _run_dispatch(program, _sandbox(seed))
        assert stats == slow.run()
        assert dmem == slow.dmem

    @pytest.mark.parametrize("seed", (0, 7, 13))
    def test_platform_fast_forward_matches_iss(self, seed):
        cross_check(seed, length=40, full_coverage=True, fast=True)

    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-int"])
    def test_other_architectures_fast(self, arch):
        cross_check(23, length=40, arch=arch, full_coverage=True,
                    fast=True)

    def test_single_core_platform_matches_iss(self):
        """A single-core run through the platform equals the ISS."""
        program = generate_random_program(42, length=60,
                                          full_coverage=True)
        golden = run_on_iss(program, sandbox_seed=42)
        for fast_forward in (False, True):
            measured = run_on_platform(program, sandbox_seed=42,
                                       fast_forward=fast_forward)
            assert measured.registers == golden.registers
            assert measured.flags == golden.flags
            assert measured.sandbox == golden.sandbox
            assert measured.retired == golden.retired
