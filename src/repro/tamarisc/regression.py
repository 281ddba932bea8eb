"""Cycle-accurate regression testing (paper Fig. 4).

The paper's design flow "contains a custom regression test for cycle
accurate verification of the LISA model simulation against the
behavioral simulation of the generated HDL code".  Our analogue verifies
the two independent executors of this repository against each other:

* the fast functional ISS (:mod:`repro.tamarisc.iss`), and
* the cycle-stepped multi-core platform (:mod:`repro.platform.multicore`).

:func:`generate_random_program` emits constrained-random but *safe*
TamaRISC programs (all loads/stores inside a sandbox region of the
private window, guaranteed termination), and :func:`cross_check` runs
one on both executors and compares the complete architectural outcome:
registers, flags, retired-instruction count and the sandbox memory.
The hypothesis-driven differential tests in ``tests/tamarisc`` feed on
this module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.memory.layout import PRIVATE_BASE
from repro.platform.config import build_config
from repro.platform.multicore import Benchmark, MultiCoreSystem
from repro.tamarisc.encoding import encode
from repro.tamarisc.isa import (
    ALU_OPS,
    BranchMode,
    Cond,
    DstMode,
    Instruction,
    Op,
    REG_XR,
    SrcMode,
)
from repro.tamarisc.iss import InstructionSetSimulator
from repro.tamarisc.program import DataImage, Program

#: Size of the memory sandbox every generated program stays inside.
SANDBOX_WORDS = 64

#: Registers the generator may use as data; the remaining registers are
#: pointer/index registers kept inside the sandbox.
_DATA_REGS = tuple(range(0, 8))
_POINTER_REGS = (8, 9, 10)

_SRC_MODES = (SrcMode.REG, SrcMode.IMM, SrcMode.IND, SrcMode.IND_POSTINC,
              SrcMode.IND_POSTDEC, SrcMode.IND_PREINC, SrcMode.IND_PREDEC,
              SrcMode.IND_IDX)
_DST_MODES = (DstMode.REG, DstMode.IND, DstMode.IND_POSTINC,
              DstMode.IND_IDX)


@dataclass
class CrossCheckResult:
    """Outcome of one differential run."""

    retired: int
    registers: list[int]
    flags: tuple
    sandbox: list[int]


#: Register used to stage indirect branch targets (``full_coverage``).
_BRANCH_REG = 11


def generate_random_program(seed: int, length: int = 40,
                            full_coverage: bool = False) -> Program:
    """A random, safe, terminating TamaRISC program.

    Safety is by construction: pointer registers are re-centred into the
    sandbox before every memory access, forward-only conditional branches
    bound execution, and the program ends with ``HLT``.

    ``full_coverage=True`` widens the instruction mix to the complete
    ISA surface: all three branch target modes (``REL``, ``DIR`` and
    register-indirect via ``r11``), all 15 condition modes including
    ``AL``, and memory-to-memory ``MOV``.  The default keeps the
    historical generator output bit-identical for existing seeds.
    """
    rng = random.Random(seed)
    words: list[int] = []

    def emit(instr: Instruction) -> None:
        words.append(encode(instr))

    def recenter(pointer: int) -> None:
        # pointer = PRIVATE_BASE + small offset (sandbox interior).
        offset = rng.randrange(8, SANDBOX_WORDS - 8)
        value = PRIVATE_BASE + offset
        emit(Instruction(op=Op.MOV, dreg=pointer, s1mode=SrcMode.IMM,
                         s1val=value >> 4))
        emit(Instruction(op=Op.SLL, dreg=pointer, s1mode=SrcMode.REG,
                         s1val=pointer, s2mode=SrcMode.IMM, s2val=4))
        emit(Instruction(op=Op.OR, dreg=pointer, s1mode=SrcMode.REG,
                         s1val=pointer, s2mode=SrcMode.IMM,
                         s2val=value & 0xF))

    def emit_filler() -> None:
        # The single skipped instruction after a forward branch.
        emit(Instruction(op=Op.XOR, dreg=rng.choice(_DATA_REGS),
                         s1mode=SrcMode.REG,
                         s1val=rng.choice(_DATA_REGS),
                         s2mode=SrcMode.IMM, s2val=rng.randrange(16)))

    for pointer in _POINTER_REGS:
        recenter(pointer)
    # Keep the index register tiny so [Rn + XR] stays inside the sandbox.
    emit(Instruction(op=Op.MOV, dreg=REG_XR, s1mode=SrcMode.IMM,
                     s1val=rng.randrange(4)))

    body = 0
    while body < length:
        choice = rng.random()
        if full_coverage and choice < 0.10:
            # Memory-to-memory MOV: a legal single-cycle copy using the
            # data-read and data-write ports together.
            emit(Instruction(
                op=Op.MOV,
                dmode=rng.choice((DstMode.IND, DstMode.IND_POSTINC,
                                  DstMode.IND_IDX)),
                dreg=rng.choice(_POINTER_REGS),
                s1mode=rng.choice((SrcMode.IND, SrcMode.IND_POSTINC,
                                   SrcMode.IND_POSTDEC, SrcMode.IND_PREINC,
                                   SrcMode.IND_PREDEC, SrcMode.IND_IDX)),
                s1val=rng.choice(_POINTER_REGS)))
            body += 1
            if body % 8 == 0:
                for pointer in _POINTER_REGS:
                    recenter(pointer)
        elif choice < 0.72:
            op = rng.choice(sorted(ALU_OPS))
            s1mode = rng.choice(_SRC_MODES)
            s2mode = rng.choice((SrcMode.REG, SrcMode.IMM)) \
                if s1mode not in (SrcMode.REG, SrcMode.IMM) \
                else rng.choice(_SRC_MODES)
            dmode = rng.choice(_DST_MODES)
            instr = Instruction(
                op=op, dmode=dmode,
                dreg=rng.choice(_POINTER_REGS) if dmode != DstMode.REG
                else rng.choice(_DATA_REGS),
                s1mode=s1mode,
                s1val=rng.randrange(16) if s1mode == SrcMode.IMM
                else (rng.choice(_POINTER_REGS)
                      if s1mode not in (SrcMode.REG,)
                      else rng.choice(_DATA_REGS)),
                s2mode=s2mode,
                s2val=rng.randrange(16) if s2mode == SrcMode.IMM
                else (rng.choice(_POINTER_REGS)
                      if s2mode not in (SrcMode.REG, SrcMode.IMM)
                      else rng.choice(_DATA_REGS)),
            )
            emit(instr)
            body += 1
            # Pointer registers drift by +-1 per access; re-centre often
            # enough that they can never escape the sandbox.
            if body % 8 == 0:
                for pointer in _POINTER_REGS:
                    recenter(pointer)
        elif choice < 0.88:
            instr = Instruction(op=Op.MOV, dmode=DstMode.REG,
                                dreg=rng.choice(_DATA_REGS),
                                s1mode=SrcMode.IMM,
                                s1val=rng.randrange(2048))
            emit(instr)
            body += 1
        elif not full_coverage:
            # Forward-only conditional branch over the next instruction:
            # bounded control flow with every condition mode exercised.
            cond = rng.choice([c for c in Cond if c != Cond.AL])
            emit(Instruction(op=Op.BR, cond=cond, bmode=BranchMode.REL,
                             target=2))
            emit_filler()
            body += 2
        else:
            # Forward-only branch in any target mode, any condition
            # (including AL).  All targets skip exactly one instruction,
            # so control flow stays bounded regardless of the flags.
            cond = rng.choice(tuple(Cond))
            bmode = rng.choice((BranchMode.REL, BranchMode.DIR,
                                BranchMode.IND))
            if bmode == BranchMode.REL:
                emit(Instruction(op=Op.BR, cond=cond, bmode=bmode,
                                 target=2))
            elif bmode == BranchMode.DIR:
                emit(Instruction(op=Op.BR, cond=cond, bmode=bmode,
                                 target=len(words) + 2))
            else:
                # Stage the absolute target in r11, then branch through
                # it.  Generated programs stay far below the 11-bit MOV
                # immediate limit.
                emit(Instruction(op=Op.MOV, dreg=_BRANCH_REG,
                                 s1mode=SrcMode.IMM,
                                 s1val=len(words) + 3))
                emit(Instruction(op=Op.BR, cond=cond, bmode=bmode,
                                 target=_BRANCH_REG))
                body += 1
            emit_filler()
            body += 2
    emit(Instruction(op=Op.HLT))
    return Program(words=words)


def run_on_iss(program: Program, sandbox_seed: int = 0,
               fast: bool = False) -> CrossCheckResult:
    """Execute on the functional ISS over a seeded sandbox."""
    rng = random.Random(sandbox_seed)
    data = {PRIVATE_BASE + i: rng.randrange(0x10000)
            for i in range(SANDBOX_WORDS)}
    iss = InstructionSetSimulator(program, data=data, fast=fast)
    iss.run(max_cycles=100_000)
    return CrossCheckResult(
        retired=iss.core.retired,
        registers=list(iss.core.regs),
        flags=iss.core.flags.as_tuple(),
        sandbox=iss.read_block(PRIVATE_BASE, SANDBOX_WORDS),
    )


def run_on_platform(program: Program, arch: str = "ulpmc-bank",
                    core: int = 0,
                    sandbox_seed: int = 0,
                    fast_forward: bool = True) -> CrossCheckResult:
    """Execute on the cycle-accurate platform; inspect one core."""
    rng = random.Random(sandbox_seed)
    sandbox = [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)]
    data = DataImage()
    for pid in range(8):
        data.set_private_block(pid, PRIVATE_BASE, sandbox)
    system = MultiCoreSystem(build_config(arch), fast_forward=fast_forward)
    system.run(Benchmark("regression", program, data),
               max_cycles=2_000_000)
    target = system.cores[core]
    return CrossCheckResult(
        retired=target.retired,
        registers=list(target.regs),
        flags=target.flags.as_tuple(),
        sandbox=system.read_logical_block(core, PRIVATE_BASE,
                                          SANDBOX_WORDS),
    )


def cross_check(seed: int, length: int = 40,
                arch: str = "ulpmc-bank",
                full_coverage: bool = False,
                fast: bool = False) -> CrossCheckResult:
    """Differential run: ISS vs platform must agree exactly.

    All eight platform cores run the same program on the same sandbox, so
    every core is checked against the single ISS execution.  With
    ``fast=False`` the platform's cycle loop (which executes the
    dispatch table) is checked against the ISS's generic operand walk,
    the reference independent of that table; ``fast=True`` pits the
    fast-forward engine against the ISS's dispatch-table mode.  Raises
    :class:`~repro.errors.SimulationError` on the first divergence.
    """
    program = generate_random_program(seed, length=length,
                                      full_coverage=full_coverage)
    golden = run_on_iss(program, sandbox_seed=seed, fast=fast)
    for core in range(8):
        measured = run_on_platform(program, arch=arch, core=core,
                                   sandbox_seed=seed, fast_forward=fast)
        for field in ("retired", "registers", "flags", "sandbox"):
            if getattr(measured, field) != getattr(golden, field):
                raise SimulationError(
                    f"seed {seed}: core {core} diverged from the ISS "
                    f"on {field}")
    return golden
