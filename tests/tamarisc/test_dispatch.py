"""Dispatch handlers against the generic operand walk, one word at a time.

Every fast executor (the cycle loop's dispatch table, translation blocks
and loop traces) runs code generated from the templates of
:mod:`repro.tamarisc.dispatch`, so engine-vs-engine differentials cannot
see a wrong template: both sides share it.  These tests compare each
generated handler directly with :class:`~repro.tamarisc.cpu.Core`:
``preview`` against :meth:`Core.data_requests`, ``commit`` against
:meth:`Core.execute` (registers, flags, PC, retired count, halt and the
stored word), over every opcode and legal addressing-mode combination,
aliased registers, edge operands and every branch condition and mode
under all 16 flag states.  ``tools/mutants.py`` checks that they fail on
broken templates.
"""

import itertools

import pytest

from repro.errors import SimulationError
from repro.tamarisc.cpu import Core, PC_MASK
from repro.tamarisc.dispatch import compile_instruction, supported
from repro.tamarisc.isa import (
    ALU_OPS,
    BranchMode,
    Cond,
    DstMode,
    Flags,
    Instruction,
    Op,
    REG_XR,
    SRC_MEM_MODES,
    SrcMode,
)

EDGES = (0, 1, 0x7FFF, 0x8000, 0xFFFF)

#: Source operand pairs: every edge pair (equal pairs included), the
#: 16-bit product boundary and the shift amounts 0/1/15/16.
PAIRS = tuple(itertools.product(EDGES, EDGES)) + (
    (255, 257), (257, 255), (256, 256), (0x1234, 0x1234), (3, 16),
    (0x8001, 1), (0x8001, 15), (0xFFFF, 16), (0x4000, 0x4000))

#: Pointer / index-register contents: address wrap-around both ways.
POINTERS = (0, 0xFFFF, 0x1234)
INDEXES = (3, 0xFFFF, 0)

#: ``(dreg, s1 register, s2 register)``: distinct registers, then the
#: aliasing shapes (source 1 is source 2's pointer, the destination is
#: the pointer, the pointer is XR).
REGISTERS = ((1, 2, 3), (4, 4, 4), (6, 6, 7), (6, 7, 6), (5, 8, 5),
             (13, 13, 13), (13, 2, 13), (5, 13, 2), (2, 3, 13))

#: Immediates tried in each immediate source field (MOV's is 11 bits).
IMMEDIATES = (0, 1, 15)
MOV_IMMEDIATES = (0, 1, 2047)


def _core(regs, flags=(False,) * 4, pc=100, retired=41):
    core = Core()
    core.regs = list(regs)
    core.flags = Flags(*flags)
    core.pc = pc
    core.retired = retired
    return core


def _state(core):
    return (core.regs, core.flags.as_tuple(), core.pc, core.retired,
            core.halted)


def check(handler, regs, value=0, flags=(False,) * 4, pc=100):
    """One handler against the generic walk from one starting state."""
    instr = handler.instr
    ref = _core(regs, flags, pc)
    fast = _core(regs, flags, pc)
    dread, dwrite = ref.data_requests(instr)
    previewed = (dread and dread.addr, dwrite and dwrite.addr)
    if handler.preview is None:
        assert previewed == (None, None), instr
    else:
        assert handler.preview(fast.regs) == previewed, (instr, regs)
        assert fast.regs == ref.regs, "preview mutated registers"
    value = value if dread is not None else None
    store = ref.execute(instr, value)
    word = handler.commit(fast, value)
    assert _state(fast) == _state(ref), (instr, regs, value, flags)
    assert word == (store and store[1]), (instr, regs, value)
    assert (handler.reads_mem, handler.writes_mem) \
        == (instr.reads_mem(), instr.writes_mem())


def _shapes(op, registers, immediates):
    """Every legal single-read instruction of ``op`` on ``registers``,
    each immediate field taking every value in ``immediates``."""
    dreg, r1, r2 = registers

    def operands(mode, reg):
        if mode == SrcMode.IMM:
            return [(mode, imm) for imm in immediates]
        return [(mode, reg)]

    s2modes = (SrcMode.REG,) if op == Op.MOV else tuple(SrcMode)
    for s1mode, s2mode, dmode in itertools.product(
            SrcMode, s2modes, DstMode):
        for (m1, v1), (m2, v2) in itertools.product(
                operands(s1mode, r1), operands(s2mode, r2)):
            instr = Instruction(op=op, dmode=dmode, dreg=dreg, s1mode=m1,
                                s1val=v1, s2mode=m2, s2val=v2)
            if supported(instr):
                yield instr


def _register_file(instr, a, b, pointer, index):
    """Registers holding source 1 = ``a`` and source 2 = ``b`` where
    the sources are registers, ``pointer`` in the memory operands'
    registers and ``index`` in XR (later assignments win on aliases)."""
    regs = [(0x1111 * k) & 0xFFFF for k in range(16)]
    regs[REG_XR] = index
    for mode, reg in ((instr.s1mode, instr.s1val),
                      (instr.s2mode, instr.s2val)):
        if mode in SRC_MEM_MODES:
            regs[reg] = pointer
    if instr.dmode != DstMode.REG:
        regs[instr.dreg] = pointer
    if instr.s1mode == SrcMode.REG:
        regs[instr.s1val] = a
    if instr.op != Op.MOV and instr.s2mode == SrcMode.REG:
        regs[instr.s2val] = b
    return regs


def _loaded(instr, a, b):
    """The memory operand's word: source 1's value or source 2's."""
    return a if instr.s1mode in SRC_MEM_MODES else b


@pytest.mark.parametrize("op", sorted(ALU_OPS) + [Op.MOV],
                         ids=lambda op: op.name)
def test_every_mode_combination(op):
    """Every legal mode combination, every register shape, edge
    operands; distinct registers take every operand pair and immediate,
    the aliasing shapes a sample."""
    immediates = MOV_IMMEDIATES if op == Op.MOV else IMMEDIATES
    for registers in REGISTERS:
        first = registers == REGISTERS[0]
        pairs = PAIRS if first else PAIRS[::6]
        for instr in _shapes(op, registers,
                             immediates if first else immediates[-1:]):
            handler = compile_instruction(instr)
            for k, (a, b) in enumerate(pairs):
                regs = _register_file(instr, a, b, POINTERS[k % 3],
                                      INDEXES[k % 3])
                check(handler, regs, _loaded(instr, a, b),
                      flags=tuple(bool(k >> bit & 1) for bit in range(4)))


def test_flags_kept_by_partial_writers():
    """Opcodes that write some flags keep the others, set or clear."""
    for op in sorted(ALU_OPS):
        handler = compile_instruction(Instruction(
            op=op, dreg=1, s1mode=SrcMode.REG, s1val=2,
            s2mode=SrcMode.REG, s2val=3))
        for state in itertools.product((False, True), repeat=4):
            for a, b in ((0, 0), (0xFFFF, 0xFFFF), (0x8000, 1)):
                regs = [0] * 16
                regs[2], regs[3] = a, b
                check(handler, regs, flags=state)


@pytest.mark.parametrize("bmode", list(BranchMode), ids=lambda m: m.name)
def test_branch_every_condition_and_flag_state(bmode):
    """``BR`` under every condition and all 16 flag states, with the
    targets wrapping at both ends of the PC space."""
    targets = {BranchMode.DIR: (0, 0x1234, 0x3FFF),
               BranchMode.REL: (5, -7, -1),
               BranchMode.IND: (4, REG_XR)}[bmode]
    regs = [(0x1111 * k) & 0xFFFF for k in range(16)]
    regs[4] = 0xABCD  # above PC_MASK: the target is masked
    for cond, target, pc in itertools.product(
            Cond, targets, (3, 100, PC_MASK - 1, PC_MASK)):
        handler = compile_instruction(Instruction(
            op=Op.BR, cond=cond, bmode=bmode, target=target))
        for state in itertools.product((False, True), repeat=4):
            check(handler, regs, flags=state, pc=pc)


def test_halt():
    handler = compile_instruction(Instruction(op=Op.HLT))
    check(handler, list(range(16)), pc=PC_MASK)
    check(handler, list(range(16)), flags=(True,) * 4)


def test_dual_read_word_takes_the_generic_fallback():
    """A word needing two read ports previews like the generic walk and
    raises at commit, as :meth:`Core.execute` does."""
    instr = Instruction(op=Op.ADD, dreg=1, s1mode=SrcMode.IND_PREINC,
                        s1val=2, s2mode=SrcMode.IND_POSTDEC, s2val=2)
    assert not supported(instr)
    handler = compile_instruction(instr)
    regs = [0x100] * 16
    dread, __ = _core(regs).data_requests(instr)
    assert handler.preview(list(regs)) == (dread.addr, None)
    with pytest.raises(SimulationError, match="two memory sources"):
        handler.commit(_core(regs), 7)
