"""Differential verification of the fast-forward execution mode.

The fast path (:mod:`repro.platform.fast_forward`) promises *bit
identity* with the cycle-stepped reference loop: same architectural
state, same :class:`SimulationStats` field-by-field, on every platform
configuration.  These tests enforce that promise on

* the ECG CS+Huffman workload (small geometry in both Huffman placement
  variants, plus the full paper geometry),
* a >=20-seed constrained-random program corpus covering the whole ISA,
* a crafted conflict-heavy workload that forces the engine to fall back
  mid-run and interleave fast and exact stretches.
"""

import dataclasses
import random

import pytest

from repro.kernels import BenchmarkSpec, build_benchmark, verify_result
from repro.platform import ARCH_NAMES, Benchmark, build_platform
from repro.power.calibration import reference_results
from repro.tamarisc.encoding import encode
from repro.tamarisc.isa import DstMode, Instruction, Op, SrcMode
from repro.tamarisc.program import DataImage, Program
from repro.tamarisc.regression import SANDBOX_WORDS, generate_random_program
from repro.memory.layout import PRIVATE_BASE

RANDOM_SEEDS = range(20)


def assert_identical(slow, fast):
    """Fast-forward result must equal the reference bit-for-bit."""
    for field in dataclasses.fields(slow.stats):
        assert getattr(slow.stats, field.name) \
            == getattr(fast.stats, field.name), \
            f"stats field {field.name!r} diverged"
    for pid, (ref, ffw) in enumerate(zip(slow.system.cores,
                                         fast.system.cores)):
        assert ref.regs == ffw.regs, f"core {pid} registers"
        assert ref.pc == ffw.pc, f"core {pid} PC"
        assert ref.flags.as_tuple() == ffw.flags.as_tuple(), \
            f"core {pid} flags"
        assert ref.halted == ffw.halted, f"core {pid} halt state"
        assert ref.retired == ffw.retired, f"core {pid} retired"
    for bank, (ref, ffw) in enumerate(zip(slow.system.dmem.banks,
                                          fast.system.dmem.banks)):
        assert ref.storage == ffw.storage, f"DM bank {bank} image"


def run_both(arch: str, benchmark: Benchmark, slow_result=None):
    """Run ``benchmark`` in both modes; returns (slow, fast, engine)."""
    if slow_result is None:
        slow_result = build_platform(arch, fast_forward=False) \
            .run(benchmark)
    fast_system = build_platform(arch, fast_forward=True)
    fast_result = fast_system.run(benchmark)
    return slow_result, fast_result, fast_system._ff_engine


class TestECGWorkload:
    """The paper benchmark, in both Huffman placements and geometries."""

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_small_geometry(self, arch, small_built, small_results):
        slow, fast, engine = run_both(arch, small_built.benchmark,
                                      slow_result=small_results[arch])
        verify_result(small_built, fast)
        assert engine.fast_cycles > 0
        assert_identical(slow, fast)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_small_geometry_private_huffman(self, arch,
                                            small_built_private):
        slow, fast, engine = run_both(arch,
                                      small_built_private.benchmark)
        verify_result(small_built_private, fast)
        assert engine.fast_cycles > 0
        assert_identical(slow, fast)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_full_geometry(self, arch):
        """Full 8-lead paper geometry against the calibration reference.

        ``reference_results`` is the lru-cached run that every
        power/energy experiment consumes; its exact-loop entry is the
        reference side here, so this asserts the experiment pipeline
        itself is mode-independent.
        """
        built, slow_result = reference_results(arch, fast_forward=False)
        slow, fast, engine = run_both(arch, built.benchmark,
                                      slow_result=slow_result)
        verify_result(built, fast)
        assert engine.fast_cycles > 0
        assert_identical(slow, fast)


class TestRandomCorpus:
    """>=20 seeded full-ISA random programs on all three configurations."""

    @staticmethod
    def _benchmark(seed: int) -> Benchmark:
        program = generate_random_program(seed, length=40,
                                          full_coverage=True)
        rng = random.Random(seed)
        sandbox = [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)]
        data = DataImage()
        for pid in range(8):
            data.set_private_block(pid, PRIVATE_BASE, sandbox)
        return Benchmark(f"random-{seed}", program, data)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_program(self, arch, seed):
        slow, fast, engine = run_both(arch, self._benchmark(seed))
        assert engine.fast_cycles > 0
        assert_identical(slow, fast)


class TestFallback:
    """Conflict-heavy workloads must interleave fast and exact stretches."""

    @staticmethod
    def _conflict_benchmark() -> Benchmark:
        """All cores hammer one shared bank, then work privately.

        The shared-bank writes conflict every cycle (writes never
        merge), desynchronising the cores; the private stretch afterward
        is conflict-free again, so the engine must fall back and later
        resume.
        """
        instrs = [
            Instruction(op=Op.MOV, dreg=8, s1mode=SrcMode.IMM,
                        s1val=0x100),
            Instruction(op=Op.MOV, dreg=9, s1mode=SrcMode.IMM,
                        s1val=PRIVATE_BASE >> 4),
            Instruction(op=Op.SLL, dreg=9, s1mode=SrcMode.REG, s1val=9,
                        s2mode=SrcMode.IMM, s2val=4),
        ]
        for step in range(12):
            # Non-mergeable: every core writes the same shared address.
            instrs.append(Instruction(op=Op.MOV, dmode=DstMode.IND,
                                      dreg=8, s1mode=SrcMode.IMM,
                                      s1val=step))
            instrs.append(Instruction(op=Op.ADD, dreg=0,
                                      s1mode=SrcMode.REG, s1val=0,
                                      s2mode=SrcMode.IMM, s2val=1))
        for __ in range(32):
            # Conflict-free: private-window walk plus pure ALU work.
            instrs.append(Instruction(op=Op.MOV, dmode=DstMode.IND_POSTINC,
                                      dreg=9, s1mode=SrcMode.REG, s1val=0))
            instrs.append(Instruction(op=Op.ADD, dreg=0,
                                      s1mode=SrcMode.REG, s1val=0,
                                      s2mode=SrcMode.IMM, s2val=3))
        instrs.append(Instruction(op=Op.HLT))
        program = Program(words=[encode(i) for i in instrs])
        return Benchmark("conflict-heavy", program, DataImage())

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    def test_mixed_mode(self, arch):
        slow, fast, engine = run_both(arch, self._conflict_benchmark())
        assert engine.fallbacks > 0, "workload must trigger fallbacks"
        assert engine.fast_cycles > 0, "workload must regain the fast path"
        assert slow.stats.dm_conflict_events > 0
        assert slow.stats.dm_stalled_requests > 0
        assert_identical(slow, fast)

    def test_fast_forward_never_consults_arbiters_when_conflict_free(
            self, small_built_private):
        """Conflict-free runs must leave round-robin pointers untouched."""
        system = build_platform("mc-ref", fast_forward=True)
        result = system.run(small_built_private.benchmark)
        assert result.stats.im_conflict_events == 0
        assert all(arb.grants == 0 for arb in system.ixbar.arbiters)


class TestSerialisedRounds:
    """ulpmc-bank packs the program into one IM bank: once the cores
    lose lockstep they all queue on it and its round-robin arbiter
    fixes the schedule, which the default engine commits in serialised
    rounds without staging a port or resolving the crossbar."""

    @pytest.mark.parametrize("overrides", [
        {"instr_broadcast": False},
        {"instr_broadcast": False, "data_broadcast": False}])
    def test_serialised_bank_commits_in_rounds(self, overrides):
        built = build_benchmark(BenchmarkSpec(n_samples=32,
                                              n_measurements=16))
        slow_system = build_platform("ulpmc-bank", fast_forward=False,
                                     **overrides)
        slow = slow_system.run(built.benchmark)
        fast_system = build_platform("ulpmc-bank", fast_forward=True,
                                     **overrides)
        fast = fast_system.run(built.benchmark)
        verify_result(built, fast)
        assert_identical(slow, fast)
        for xbar in ("ixbar", "dxbar"):
            assert [(arbiter.pointer, arbiter.grants) for arbiter
                    in getattr(fast_system, xbar).arbiters] \
                == [(arbiter.pointer, arbiter.grants) for arbiter
                    in getattr(slow_system, xbar).arbiters], xbar
        summary = fast_system.block_summary()
        assert summary["round_cycles"] >= 0.95 * fast.stats.total_cycles
