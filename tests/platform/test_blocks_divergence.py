"""Lockstep divergence and loop-trace behaviour of the block layer.

The translation-block fast path only fires while every running core
sits at the same PC; the loop-trace layer additionally speculates that
the cores *stay* in lockstep through whole loop iterations and compute
the same uniform values.  These tests force every way out of that
speculation — taken/not-taken divergence at a data-dependent branch, a
per-core split no trace can compute uniformly, and a trace entered with
per-core values in registers it treats as uniform — and require bit
identity with the exact cycle loop throughout, plus evidence that each
scenario actually exercised the intended machinery.  A block commits
one pass per entry, so even a one-block loop is the trace layer's.
"""

import dataclasses

import pytest

import repro.platform.fast_forward as ff_engine
import repro.tamarisc.blocks as tblocks
from repro.memory.layout import PRIVATE_BASE
from repro.obs import WindowedAggregator
from repro.platform import ARCH_NAMES, Benchmark, build_platform
from repro.resilience import FaultSession, FaultSpec
from repro.tamarisc.encoding import encode
from repro.tamarisc.isa import BranchMode, Cond, DstMode, Instruction, Op, \
    SrcMode
from repro.tamarisc.program import DataImage, Program

ITERS = 24
COUNTER = 12
POINTER = 8
SCRATCH = 9
BASE = PRIVATE_BASE + 16
#: First loop-body PC: :func:`_program` emits five setup instructions.
LOOP_TOP = 5
#: A cycle inside the loop of a four-instruction iteration (cycles
#: 5-100), after the trace layer took over at the default thresholds of
#: :func:`trace_thresholds`.
MID_LOOP = 64


def _program(body, tail=lambda top: []):
    """Counted loop around ``body``: counter in r12, pointer in r8.

    ``tail(top)`` lists instructions placed between the loop's
    back-edge and the final ``HLT`` (``top`` is the loop's first PC).
    """
    words = []

    def emit(instr):
        words.append(encode(instr))

    emit(Instruction(op=Op.MOV, dreg=COUNTER, s1mode=SrcMode.IMM,
                     s1val=ITERS))
    emit(Instruction(op=Op.MOV, dreg=POINTER, s1mode=SrcMode.IMM,
                     s1val=BASE >> 4))
    emit(Instruction(op=Op.SLL, dreg=POINTER, s1mode=SrcMode.REG,
                     s1val=POINTER, s2mode=SrcMode.IMM, s2val=4))
    emit(Instruction(op=Op.OR, dreg=POINTER, s1mode=SrcMode.REG,
                     s1val=POINTER, s2mode=SrcMode.IMM, s2val=BASE & 0xF))
    emit(Instruction(op=Op.ADD, dreg=SCRATCH, s1mode=SrcMode.REG,
                     s1val=POINTER, s2mode=SrcMode.IMM, s2val=8))
    top = len(words)
    assert top == LOOP_TOP
    for instr in body:
        emit(instr)
    emit(Instruction(op=Op.SUB, dreg=COUNTER, s1mode=SrcMode.REG,
                     s1val=COUNTER, s2mode=SrcMode.IMM, s2val=1))
    emit(Instruction(op=Op.BR, cond=Cond.NE, bmode=BranchMode.DIR,
                     target=top))
    for instr in tail(top):
        emit(instr)
    emit(Instruction(op=Op.HLT))
    return Program(words=words)


def _benchmark(name, body, per_core_words, tail=lambda top: []):
    """``per_core_words(pid)`` seeds each core's private sandbox."""
    data = DataImage()
    for pid in range(8):
        data.set_private_block(pid, PRIVATE_BASE, per_core_words(pid))
    return Benchmark(name, _program(body, tail), data)


def _split_body(source):
    """Diamond: flags from ``source``, NE skips one marker instruction.

    Cores where the AND result is non-zero keep ``r5 == 7``; the others
    execute the skipped slot and end with ``r5 == 3``.
    """
    return [
        Instruction(op=Op.MOV, dreg=5, s1mode=SrcMode.IMM, s1val=7),
        source,
        Instruction(op=Op.BR, cond=Cond.NE, bmode=BranchMode.REL,
                    target=2),
        Instruction(op=Op.MOV, dreg=5, s1mode=SrcMode.IMM, s1val=3),
        # store through the scratch pointer so the marker never clobbers
        # the word the split condition reads
        Instruction(op=Op.ADD, dmode=DstMode.IND, dreg=SCRATCH,
                    s1mode=SrcMode.REG, s1val=5, s2mode=SrcMode.IMM,
                    s2val=0),
    ]


#: Flag sources for the diamond: per-core private data vs the uniform
#: loop counter.
PER_CORE_SPLIT = Instruction(op=Op.AND, dreg=7, s1mode=SrcMode.IND,
                             s1val=POINTER, s2mode=SrcMode.IMM, s2val=1)
UNIFORM_SPLIT = Instruction(op=Op.AND, dreg=7, s1mode=SrcMode.REG,
                            s1val=COUNTER, s2mode=SrcMode.IMM, s2val=1)


def assert_identical(slow_sys, slow, fast_sys, fast):
    for field in dataclasses.fields(slow.stats):
        assert getattr(slow.stats, field.name) \
            == getattr(fast.stats, field.name), \
            f"stats field {field.name!r} diverged"
    for pid, (ref, ffw) in enumerate(zip(slow_sys.cores, fast_sys.cores)):
        assert ref.regs == ffw.regs, f"core {pid} registers"
        assert ref.pc == ffw.pc, f"core {pid} PC"
        assert ref.flags.as_tuple() == ffw.flags.as_tuple(), \
            f"core {pid} flags"
        assert ref.halted == ffw.halted, f"core {pid} halt state"
    for bank, (ref, ffw) in enumerate(zip(slow_sys.dmem.banks,
                                          fast_sys.dmem.banks)):
        assert ref.storage == ffw.storage, f"DM bank {bank} image"


def run_modes(benchmark, arch="mc-ref"):
    """(exact system+result, blocks system+result, engine)."""
    slow_sys = build_platform(arch, fast_forward=False)
    slow = slow_sys.run(benchmark)
    fast_sys = build_platform(arch, fast_forward=True)
    fast = fast_sys.run(benchmark)
    return slow_sys, slow, fast_sys, fast, fast_sys._ff_engine


@pytest.fixture
def trace_thresholds(monkeypatch):
    monkeypatch.setattr(ff_engine, "TRACE_ENTRY_THRESHOLD", 4)
    monkeypatch.setattr(ff_engine, "TRACE_MIN_EDGE", 2)


class TestBranchDivergence:
    """Blocks must hand over cleanly when lockstep breaks."""

    @pytest.mark.parametrize("arch", ["mc-ref", "ulpmc-bank"])
    def test_taken_vs_not_taken_fallback(self, arch):
        benchmark = _benchmark(
            "diverge", _split_body(PER_CORE_SPLIT),
            lambda pid: [pid % 2] * 32)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark,
                                                           arch)
        assert engine.block_entries > 0  # lockstep prefix used blocks
        assert_identical(slow_sys, slow, fast_sys, fast)
        # the scenario is not vacuous: the two populations really took
        # different arms ...
        assert {core.regs[5] for core in fast_sys.cores} == {7, 3}

    def test_no_cross_core_state_leakage(self):
        benchmark = _benchmark(
            "leak", _split_body(PER_CORE_SPLIT),
            lambda pid: [pid % 2] * 32)
        __, __, fast_sys, __, __ = run_modes(benchmark)
        # ... and each core's sandbox word reflects only its own arm:
        # odd-seeded cores (AND != 0) store 7, even-seeded cores 3.
        for pid, core in enumerate(fast_sys.cores):
            expected = 7 if pid % 2 else 3
            assert core.regs[5] == expected, f"core {pid}"


class TestLoopTraces:
    """Loop-trace discovery, commit, bail and decline."""

    def test_single_arm_trace_commits(self, trace_thresholds):
        # OR with the counter is always non-zero: NE is always taken,
        # so profiling sees a single hot edge and builds a 1-arm trace.
        body = _split_body(Instruction(op=Op.OR, dreg=7,
                                       s1mode=SrcMode.REG, s1val=COUNTER,
                                       s2mode=SrcMode.IMM, s2val=1))
        benchmark = _benchmark("one-arm", body, lambda pid: [0] * 32)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark)
        assert len(engine._trace_recs) >= 1
        assert engine.trace_cycles > 0
        assert_identical(slow_sys, slow, fast_sys, fast)

    @pytest.mark.parametrize("arch", ARCH_NAMES)
    @pytest.mark.parametrize("case", ["clean", "window", "fault"])
    def test_one_block_loop_grows_one_arm_trace(self, trace_thresholds,
                                                monkeypatch, arch, case):
        # A straight body makes the loop one block that branches back
        # to its own start.  Its entries profile the block's edge to
        # itself, so the trace grown there has one arm that chains no
        # block.  A telemetry window edge or a fault due mid-loop caps
        # the trace; the flipped counter bit then makes the re-entries
        # decline (until the engine drops the trace) and one core leave
        # the loop apart from the others.
        shapes = []
        build = tblocks.build_trace

        def spying_build(anchor, arms_spec, *args):
            shapes.append((anchor.start, arms_spec))
            return build(anchor, arms_spec, *args)

        monkeypatch.setattr(tblocks, "build_trace", spying_build)
        body = [
            Instruction(op=Op.ADD, dreg=0, s1mode=SrcMode.IND,
                        s1val=POINTER, s2mode=SrcMode.REG, s2val=COUNTER),
            Instruction(op=Op.ADD, dmode=DstMode.IND, dreg=SCRATCH,
                        s1mode=SrcMode.REG, s1val=0, s2mode=SrcMode.IMM,
                        s2val=0),
        ]
        benchmark = _benchmark("one-block", body,
                               lambda pid: [100 * pid] * 32)
        runs = []
        for fast_forward in (False, True):
            system = build_platform(arch, fast_forward=fast_forward)
            aggregator = WindowedAggregator.attach(
                system.probe_bus(), window_cycles=MID_LOOP) \
                if case == "window" else None
            faults = FaultSession([FaultSpec("reg", MID_LOOP, 3,
                                             index=COUNTER, mask=2)]) \
                if case == "fault" else None
            result = system.run(benchmark, faults=faults)
            runs.append((system, result,
                         aggregator and aggregator.windows))
        (slow_sys, slow, slow_windows), (fast_sys, fast, fast_windows) = runs
        assert_identical(slow_sys, slow, fast_sys, fast)
        assert fast_windows == slow_windows
        engine = fast_sys._ff_engine
        assert shapes == [(LOOP_TOP, [(True, [])])]
        assert engine.traces_built == 1
        assert engine.trace_cycles > 0

    def test_two_arm_diamond_commits(self, trace_thresholds):
        # Counter parity alternates the arms every iteration; both
        # edges are hot and whole iterations commit through the trace.
        benchmark = _benchmark("diamond", _split_body(UNIFORM_SPLIT),
                               lambda pid: [0] * 32)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark)
        assert len(engine._trace_recs) == 1
        assert engine.trace_cycles > 0
        assert_identical(slow_sys, slow, fast_sys, fast)

    def test_per_core_split_registers_no_trace(self, trace_thresholds):
        # Per-core data drives the split: each core loads its own word
        # and branches on its parity.  The parities agree for the first
        # 16 iterations, so the loop profiles as a hot lockstep cycle,
        # but the loaded value (and with it the guard's flags) is
        # per-core, so no trace can compute the iteration once for all
        # cores.  The shape is never registered, its anchor is not
        # retried, and the blocks carry the loop bit-identically.
        def words(pid):
            image = [0] * 48
            for w in range(1, ITERS + 1):
                image[16 + w] = (pid % 2) if w <= 8 else (1 + 2 * pid)
            return image

        body = [
            # address = pointer + loop counter: walks the per-core
            # array backwards, one word per iteration
            Instruction(op=Op.ADD, dreg=10, s1mode=SrcMode.REG,
                        s1val=POINTER, s2mode=SrcMode.REG,
                        s2val=COUNTER),
            Instruction(op=Op.ADD, dreg=0, s1mode=SrcMode.IND,
                        s1val=10, s2mode=SrcMode.IMM, s2val=0),
        ] + _split_body(Instruction(op=Op.AND, dreg=7,
                                    s1mode=SrcMode.REG, s1val=0,
                                    s2mode=SrcMode.IMM, s2val=1))
        benchmark = _benchmark("per-core-split", body, words)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark)
        assert LOOP_TOP in engine._trace_tried  # considered, not retried
        assert not engine._trace_recs
        assert engine.traces_built == engine.trace_entries == 0
        assert engine.block_entries > 0
        assert_identical(slow_sys, slow, fast_sys, fast)
        # both arms really ran after the parity split
        assert {core.regs[5] for core in fast_sys.cores} == {7, 3}

    def test_non_uniform_entry_declines(self, trace_thresholds,
                                        monkeypatch):
        # The diamond accumulates r6 into r4.  Both are 0 on every core
        # while the trace is built, so the trace computes them once for
        # all cores.  A second pass re-enters the loop with a per-core
        # r6: each entry must decline (return 0) before touching any
        # state, and the blocks run the pass bit-identically.
        records = []
        calls = []
        build = ff_engine.FastForwardEngine._build_trace

        def state(engine, cores, args):
            # args: the MMU, D-bank and accumulator lists, then the
            # cycle budget.
            return ([(core.pc, core.retired, list(core.regs),
                      core.flags.as_tuple()) for core in cores],
                    [list(arg) for arg in args[:-1]],
                    [list(bank.storage)
                     for bank in engine._system().dmem.banks])

        def spying_build(engine, start):
            record = build(engine, start)
            if record is not None:
                run = record[0]

                def checked(cores, *args):
                    before = state(engine, cores, args)
                    committed = run(cores, *args)
                    if not committed:
                        assert state(engine, cores, args) == before
                    calls.append(committed)
                    return committed

                record[0] = checked
                records.append(record)
            return record

        monkeypatch.setattr(ff_engine.FastForwardEngine, "_build_trace",
                            spying_build)

        def second_pass(top):
            # r6 := the core's own sandbox word; r11 counts passes, so
            # the loop runs once more (two iterations) and then halts.
            return [
                Instruction(op=Op.MOV, dreg=6, s1mode=SrcMode.IND,
                            s1val=POINTER),
                Instruction(op=Op.MOV, dreg=COUNTER, s1mode=SrcMode.IMM,
                            s1val=2),
                Instruction(op=Op.ADD, dreg=11, s1mode=SrcMode.REG,
                            s1val=11, s2mode=SrcMode.IMM, s2val=1),
                Instruction(op=Op.SUB, dreg=3, s1mode=SrcMode.REG,
                            s1val=11, s2mode=SrcMode.IMM, s2val=2),
                Instruction(op=Op.BR, cond=Cond.NE, bmode=BranchMode.DIR,
                            target=top),
            ]

        body = [Instruction(op=Op.ADD, dreg=4, s1mode=SrcMode.REG,
                            s1val=4, s2mode=SrcMode.REG, s2val=6)] \
            + _split_body(UNIFORM_SPLIT)
        benchmark = _benchmark("reentry", body, lambda pid: [1 + pid] * 32,
                               tail=second_pass)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark)
        assert any(calls), "the trace committed the first pass"
        assert 0 in calls, "the second pass entered the trace"
        assert sum(record[5] for record in records) > 0  # declines
        assert_identical(slow_sys, slow, fast_sys, fast)
        # the second pass really ran with per-core r6
        assert [core.regs[4] for core in fast_sys.cores] \
            == [2 * (1 + pid) for pid in range(8)]

    def test_per_core_data_uniform_control(self, trace_thresholds):
        # Uniform control flow over per-core private data: the trace
        # layer may specialise the uniform computation but the per-core
        # loads/stores must stay per-bank.  Every core accumulates its
        # own sandbox word, so any cross-core mix-up changes the result.
        body = [
            Instruction(op=Op.ADD, dreg=0, s1mode=SrcMode.IND,
                        s1val=POINTER, s2mode=SrcMode.IMM, s2val=1),
            Instruction(op=Op.ADD, dmode=DstMode.IND, dreg=POINTER,
                        s1mode=SrcMode.REG, s1val=0, s2mode=SrcMode.IMM,
                        s2val=0),
        ] + _split_body(UNIFORM_SPLIT)
        benchmark = _benchmark("uniform-data", body,
                               lambda pid: [100 * pid] * 32)
        slow_sys, slow, fast_sys, fast, engine = run_modes(benchmark)
        assert engine.trace_cycles > 0
        assert_identical(slow_sys, slow, fast_sys, fast)
        # each core saw only its own data: base + one increment per
        # committed iteration, all distinct across cores
        finals = [core.regs[0] for core in fast_sys.cores]
        assert len(set(finals)) == len(finals)
