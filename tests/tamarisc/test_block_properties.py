"""Property tests for the basic-block translation layer.

Three block-level properties lock the tentpole down:

* executing a fused block is indistinguishable from per-instruction
  dispatch (and from the exact cycle loop) for the full architectural
  state and the accounting stats, also where an address fault cuts the
  block short;
* block discovery stops exactly at control-flow boundaries — a
  ``BR``/``HLT`` terminator is included, an unsupported instruction or
  the :data:`~repro.tamarisc.blocks.MAX_BLOCK_BODY` cap ends the block
  before it, and the collected instructions mirror the decoded image;
* the translation cache is keyed on ``(pc, image_hash)`` and returns
  the *same object* for repeated lookups — different images never
  alias.
"""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.platform.fast_forward as ff_engine
from repro.errors import SimulationError
from repro.memory.layout import PRIVATE_BASE
from repro.platform import ARCH_NAMES, Benchmark, build_platform
from repro.tamarisc.blocks import (
    MAX_BLOCK_BODY,
    cache_clear,
    discover_block,
    get_block,
    image_hash,
)
from repro.tamarisc.encoding import decode, encode
from repro.tamarisc.isa import Instruction, Op, SrcMode
from repro.tamarisc.program import DataImage, Program
from repro.tamarisc.regression import SANDBOX_WORDS, generate_random_program
from repro.tamarisc.dispatch import supported as _supported

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _benchmark(seed: int) -> Benchmark:
    program = generate_random_program(seed, length=30, full_coverage=True)
    rng = random.Random(seed)
    sandbox = [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)]
    data = DataImage()
    for pid in range(8):
        data.set_private_block(pid, PRIVATE_BASE, sandbox)
    return Benchmark(f"prop-{seed}", program, data)


def _run(benchmark, arch, fast_forward, blocks):
    system = build_platform(arch, fast_forward=fast_forward)
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks):
        return system, system.run(benchmark)


class TestFusedExecution:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_block_mode_equals_dispatch_and_exact(self, seed):
        benchmark = _benchmark(seed)
        arch = ARCH_NAMES[seed % len(ARCH_NAMES)]
        exact_sys, exact = _run(benchmark, arch, False, False)
        for blocks in (False, True):
            fast_sys, fast = _run(benchmark, arch, True, blocks)
            for field in dataclasses.fields(exact.stats):
                assert getattr(exact.stats, field.name) \
                    == getattr(fast.stats, field.name), field.name
            for ref, ffw in zip(exact_sys.cores, fast_sys.cores):
                assert ref.regs == ffw.regs
                assert ref.pc == ffw.pc
                assert ref.flags.as_tuple() == ffw.flags.as_tuple()
                assert ref.halted == ffw.halted
            for ref, ffw in zip(exact_sys.dmem.banks, fast_sys.dmem.banks):
                assert ref.storage == ffw.storage


    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_address_fault_keeps_the_flags_before_it(self, arch):
        """A block raising at a faulting access leaves every earlier
        instruction committed, including a flag store that the faulting
        instruction itself would overwrite."""
        program = Program(words=[encode(instr) for instr in (
            Instruction(op=Op.MOV, dreg=3, s1mode=SrcMode.IMM,
                        s1val=0x7FF),
            # r3 = 0xFFE0, beyond every private window; n set
            Instruction(op=Op.SLL, dreg=3, s1mode=SrcMode.REG, s1val=3,
                        s2mode=SrcMode.IMM, s2val=5),
            # z and c set, n clear: stores only the fault can observe
            Instruction(op=Op.SUB, dreg=1, s1mode=SrcMode.REG, s1val=1,
                        s2mode=SrcMode.REG, s2val=1),
            Instruction(op=Op.ADD, dreg=6, s1mode=SrcMode.IND, s1val=3,
                        s2mode=SrcMode.IMM, s2val=0),
            Instruction(op=Op.HLT),
        )])
        benchmark = Benchmark("fault-cut", program, DataImage())
        states = []
        for fast_forward in (False, True):
            system = build_platform(arch, fast_forward=fast_forward)
            with pytest.raises(SimulationError) as raised:
                system.run(benchmark)
            states.append((str(raised.value),
                           [(core.pc, core.retired, core.regs,
                             core.flags.as_tuple())
                            for core in system.cores]))
        assert states[1] == states[0]
        assert system._ff_engine.block_entries == 1


class TestDiscovery:
    @given(SEEDS, st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_stops_at_control_flow_boundaries(self, seed, pc_pick):
        program = generate_random_program(seed, length=25,
                                          full_coverage=True)
        decoded = [decode(word) for word in program.words]
        pc = pc_pick % len(decoded)
        block = discover_block(decoded, pc)
        assert block.start == pc
        assert len(block.instrs) <= MAX_BLOCK_BODY + 1
        # the collected instructions mirror the image
        assert block.instrs == decoded[pc:pc + len(block.instrs)]
        if block.terminator is not None:
            # terminator is the block's only control-flow instruction
            last = block.instrs[-1]
            assert (block.terminator == "hlt") == (last.op == Op.HLT)
            assert (block.terminator == "br") == (last.op == Op.BR)
            body = block.instrs[:-1]
        else:
            body = block.instrs
            # the block ended early: cap, program end or unsupported next
            nxt = pc + len(body)
            assert len(body) == MAX_BLOCK_BODY or nxt >= len(decoded) \
                or not _supported(decoded[nxt])
        for instr in body:
            assert instr.op not in (Op.BR, Op.HLT)
            assert _supported(instr)

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_every_position_reachable(self, seed):
        """Discovery never raises anywhere in the image and blocks
        starting on a terminator contain exactly that instruction."""
        program = generate_random_program(seed, length=15)
        decoded = [decode(word) for word in program.words]
        for pc, instr in enumerate(decoded):
            block = discover_block(decoded, pc)
            if instr.op in (Op.BR, Op.HLT):
                assert block.total == 1
                assert block.terminator is not None


class TestCacheIdentity:
    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_same_key_same_object(self, seed):
        program = generate_random_program(seed, length=20)
        decoded = [decode(word) for word in program.words]
        digest = image_hash(program.words)
        cache_clear()
        try:
            first, compiled = get_block(0, digest, decoded)
            again, recompiled = get_block(0, digest, decoded)
            assert compiled and not recompiled
            assert first is again
        finally:
            cache_clear()

    def test_different_images_never_alias(self):
        prog_a = generate_random_program(3, length=20)
        prog_b = generate_random_program(4, length=20)
        dec_a = [decode(word) for word in prog_a.words]
        dec_b = [decode(word) for word in prog_b.words]
        hash_a = image_hash(prog_a.words)
        hash_b = image_hash(prog_b.words)
        assert hash_a != hash_b
        cache_clear()
        try:
            block_a, __ = get_block(0, hash_a, dec_a)
            block_b, __ = get_block(0, hash_b, dec_b)
            assert block_a is not block_b
            assert block_a.instrs == dec_a[:len(block_a.instrs)]
            assert block_b.instrs == dec_b[:len(block_b.instrs)]
        finally:
            cache_clear()
