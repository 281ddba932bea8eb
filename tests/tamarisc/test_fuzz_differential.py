"""Fuzz differential: 50 random programs, three execution modes.

The fast-forward engine's bit-identity promise covers more than the
architectural state the older differential suite checks — the *probe
event stream* must also be indistinguishable, because every metric,
trace and manifest digest is derived from it.  Each seeded
constrained-random program (full ISA surface) runs once per mode —
exact cycle-stepped loop, per-instruction fast-forward, and
block-translated fast-forward (:mod:`repro.tamarisc.blocks`) — with

* per-event subscribers on the per-cycle ``core.retire`` and
  ``core.stall`` events (an observed run: the engine synthesises the
  per-cycle event stream), and
* the metrics sink the run loops fold into, on the same bus,

and the test asserts equal registers, memory, ``SimulationStats``, and
folded histograms and per-cycle-sorted event streams equal to those of
the reference cycle loop (``tests/interconnect/reference_loop.py``)
and its per-event metrics fold (``tests/obs/metrics_reference.py``).
``ff.exit`` is excluded: it describes the engine's own mode
transitions, which by definition differ between modes.

A second pass re-runs a slice of the corpus with *only* the metrics
sink attached, so the unobserved engine paths (no ``emit()`` involved
at all) fold the same histograms as the reference.

A third pass runs *unobserved* (no probe bus at all) with the loop-trace
profiling thresholds lowered, so the trace layer — which only engages on
unobserved runs — discovers, compiles and executes loop traces over the
random corpus and its state must still match the exact loop bit for bit.
"""

import dataclasses
import random
from unittest import mock

import pytest

import repro.platform.fast_forward as ff_engine
from repro.memory.layout import PRIVATE_BASE
from repro.obs import ProbeMetrics
from repro.platform import ARCH_NAMES, Benchmark, build_platform
from repro.tamarisc.program import DataImage
from repro.tamarisc.regression import SANDBOX_WORDS, generate_random_program
from tests.interconnect.reference_loop import reference_run
from tests.obs.metrics_reference import ReferenceMetrics, histograms

#: The per-cycle events every engine delivers identically (``ff.exit``
#: announces the engine's own transitions; the exact loop never emits
#: it, so it is not part of the identity contract).
COMPARABLE_EVENTS = ("core.retire", "core.stall")

#: (fast_forward, blocks) per compared execution mode; ``blocks=False``
#: patches the engine's test-only switch for the per-instruction-only
#: engine.
MODES = {
    "exact": (False, False),
    "ff-instr": (True, False),
    "ff-blocks": (True, True),
}

FUZZ_SEEDS = range(50)


def fuzz_benchmark(seed: int) -> Benchmark:
    """Full-coverage random program plus a seeded private sandbox."""
    program = generate_random_program(seed, length=40, full_coverage=True)
    rng = random.Random(seed)
    sandbox = [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)]
    data = DataImage()
    for pid in range(8):
        data.set_private_block(pid, PRIVATE_BASE, sandbox)
    return Benchmark(f"fuzz-{seed}", program, data)


def looped_fuzz_benchmark(seed: int, iters: int = 24) -> Benchmark:
    """Random straight-line body wrapped in a counted loop (trace bait).

    :func:`generate_random_program` is forward-branch-only, so nothing
    in the plain corpus ever re-enters a block often enough to grow a
    loop trace.  This variant emits a sandbox pointer, a loop counter in
    ``r12`` (untouched by the body mix) and a random ALU/memory body,
    closed by ``SUB r12, 1`` + ``BR NE`` back to the top — exactly the
    counted-loop shape the trace builder profiles for.  A data-dependent
    forward branch mid-body splits the loop into a multi-block diamond
    (a one-block loop would grow only a one-arm trace whose arm chains
    no block).  Per-pid sandbox contents differ, so loaded
    registers diverge across cores and the trace's per-core/uniform
    split, its entry check and the bail path get exercised; even seeds
    branch on the uniform loop counter so whole iterations actually
    commit, odd seeds branch on per-core data, a shape no trace can
    compute once for all cores, so the blocks must carry it.
    """
    from repro.tamarisc.encoding import encode
    from repro.tamarisc.isa import (BranchMode, Cond, DstMode, Instruction,
                                    Op, SrcMode)
    from repro.tamarisc.program import Program

    rng = random.Random(0x10000 + seed)
    words: list[int] = []

    def emit(instr: Instruction) -> None:
        words.append(encode(instr))

    counter = 12  # outside the generator's data/pointer/XR register pools
    pointer = 8
    base = PRIVATE_BASE + rng.randrange(8, SANDBOX_WORDS - 8)
    emit(Instruction(op=Op.MOV, dreg=counter, s1mode=SrcMode.IMM,
                     s1val=iters))
    emit(Instruction(op=Op.MOV, dreg=pointer, s1mode=SrcMode.IMM,
                     s1val=base >> 4))
    emit(Instruction(op=Op.SLL, dreg=pointer, s1mode=SrcMode.REG,
                     s1val=pointer, s2mode=SrcMode.IMM, s2val=4))
    emit(Instruction(op=Op.OR, dreg=pointer, s1mode=SrcMode.REG,
                     s1val=pointer, s2mode=SrcMode.IMM, s2val=base & 0xF))
    top = len(words)
    alu = (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.SLL, Op.SRL, Op.MUL)
    for __ in range(rng.randrange(3, 9)):
        choice = rng.random()
        if choice < 0.25:  # sandbox load (drift-free addressing)
            emit(Instruction(op=rng.choice(alu), dreg=rng.randrange(8),
                             s1mode=SrcMode.IND, s1val=pointer,
                             s2mode=SrcMode.IMM, s2val=rng.randrange(16)))
        elif choice < 0.45:  # sandbox store
            emit(Instruction(op=rng.choice(alu), dmode=DstMode.IND,
                             dreg=pointer, s1mode=SrcMode.REG,
                             s1val=rng.randrange(8), s2mode=SrcMode.IMM,
                             s2val=rng.randrange(16)))
        else:  # register/immediate ALU
            emit(Instruction(op=rng.choice(alu), dreg=rng.randrange(8),
                             s1mode=SrcMode.REG, s1val=rng.randrange(8),
                             s2mode=rng.choice((SrcMode.REG, SrcMode.IMM)),
                             s2val=rng.randrange(8)))
    # Diamond split: flag-setting ALU + conditional skip of one filler.
    if seed % 2 == 0:  # uniform split — iterations commit in lockstep
        emit(Instruction(op=Op.AND, dreg=7, s1mode=SrcMode.REG,
                         s1val=counter, s2mode=SrcMode.IMM,
                         s2val=rng.randrange(1, 8)))
    else:  # per-core split — no trace; the blocks carry the loop
        emit(Instruction(op=Op.AND, dreg=7, s1mode=SrcMode.IND,
                         s1val=pointer, s2mode=SrcMode.IMM,
                         s2val=rng.randrange(1, 8)))
    emit(Instruction(op=Op.BR, bmode=BranchMode.REL, target=2,
                     cond=rng.choice((Cond.EQ, Cond.NE, Cond.PL))))
    emit(Instruction(op=Op.XOR, dreg=rng.randrange(8),
                     s1mode=SrcMode.REG, s1val=rng.randrange(8),
                     s2mode=SrcMode.IMM, s2val=rng.randrange(16)))
    emit(Instruction(op=Op.SUB, dreg=counter, s1mode=SrcMode.REG,
                     s1val=counter, s2mode=SrcMode.IMM, s2val=1))
    emit(Instruction(op=Op.BR, cond=Cond.NE, bmode=BranchMode.DIR,
                     target=top))
    emit(Instruction(op=Op.HLT))
    data = DataImage()
    for pid in range(8):
        prng = random.Random((seed << 4) | pid)
        data.set_private_block(
            pid, PRIVATE_BASE,
            [prng.randrange(0x10000) for __ in range(SANDBOX_WORDS)])
    return Benchmark(f"fuzz-loop-{seed}", Program(words=words), data)


def run_mode(arch: str, benchmark: Benchmark, mode: str, system=None):
    """Run ``benchmark`` in one of :data:`MODES` (unobserved unless a
    ``system`` with a probe bus is passed in)."""
    fast_forward, blocks = MODES[mode]
    if system is None:
        system = build_platform(arch, fast_forward=fast_forward)
    with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks):
        return system.run(benchmark)


def run_observed(arch: str, benchmark: Benchmark, mode: str,
                 capture_events: bool = True):
    """One run with the metrics sink attached; returns (result, folded
    histograms, event streams).

    ``capture_events`` adds per-event subscribers (an observed run);
    without it the sink is alone (streams are ``None``).
    """
    system = build_platform(arch, fast_forward=MODES[mode][0])
    bus = system.probe_bus()
    streams = None
    if capture_events:
        streams = {name: [] for name in COMPARABLE_EVENTS}
        for name in COMPARABLE_EVENTS:
            bus.subscribe(name,
                          lambda *args, _rec=streams[name].append:
                          _rec(args))
    metrics = ProbeMetrics.attach(bus)
    result = run_mode(arch, benchmark, mode, system)
    mismatches = metrics.verify_against(result.stats)
    assert not mismatches, f"probe/stats reconciliation: {mismatches}"
    if streams is not None:
        for stream in streams.values():
            stream.sort()  # per-cycle order is not part of the contract
    return result, histograms(metrics), streams


def reference(arch: str, benchmark: Benchmark):
    """The reference loop's run: its stats, the per-event fold of its
    histograms and its per-cycle-sorted event streams."""
    log = []
    stats = reference_run(build_platform(arch, fast_forward=False),
                          benchmark, log=log)
    streams = {name: sorted(tuple(event[1:]) for event in log
                            if event[0] == name)
               for name in COMPARABLE_EVENTS}
    return stats, ReferenceMetrics(log).finish(), streams


def assert_state_identical(slow, fast):
    for field in dataclasses.fields(slow.stats):
        assert getattr(slow.stats, field.name) \
            == getattr(fast.stats, field.name), \
            f"stats field {field.name!r} diverged"
    for pid, (ref, ffw) in enumerate(zip(slow.system.cores,
                                         fast.system.cores)):
        assert ref.regs == ffw.regs, f"core {pid} registers"
        assert ref.pc == ffw.pc, f"core {pid} PC"
        assert ref.halted == ffw.halted, f"core {pid} halt state"
    for bank, (ref, ffw) in enumerate(zip(slow.system.dmem.banks,
                                          fast.system.dmem.banks)):
        assert ref.storage == ffw.storage, f"DM bank {bank} image"


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_event_stream_identity(seed):
    """State, metrics and sorted event streams agree across all modes,
    and the folded histograms and event streams equal the reference
    loop's."""
    arch = ARCH_NAMES[seed % len(ARCH_NAMES)]
    benchmark = fuzz_benchmark(seed)
    stats, expected, expected_events = reference(arch, benchmark)
    slow = None
    for mode in MODES:
        fast, fast_hist, fast_events = run_observed(arch, benchmark, mode)
        assert fast.stats == stats, f"stats != reference ({mode})"
        if slow is None:
            slow = fast
        assert_state_identical(slow, fast)
        assert fast_hist == expected, f"fold != reference ({mode})"
        for name in COMPARABLE_EVENTS:
            assert fast_events[name] == expected_events[name], \
                f"{name} event stream diverged (seed {seed}, {arch}, {mode})"


@pytest.mark.parametrize("seed", range(0, 50, 4))
def test_fuzz_unobserved_trace_identity(seed, monkeypatch):
    """Unobserved runs with aggressive trace thresholds stay identical.

    Loop traces only build and run without an active probe bus, so
    neither pass above exercises them.  Lowering the profiling
    thresholds makes even the short loops of the random corpus
    trace-eligible (discovery, compilation, lockstep dispatch, bail
    and rollback all run); the committed state must still match the
    exact loop exactly.
    """
    monkeypatch.setattr(ff_engine, "TRACE_ENTRY_THRESHOLD", 4)
    monkeypatch.setattr(ff_engine, "TRACE_MIN_EDGE", 2)
    arch = ARCH_NAMES[seed % len(ARCH_NAMES)]
    benchmark = fuzz_benchmark(seed)
    runs = {mode: run_mode(arch, benchmark, mode) for mode in MODES}
    assert_state_identical(runs["exact"], runs["ff-instr"])
    assert_state_identical(runs["exact"], runs["ff-blocks"])


@pytest.mark.parametrize("seed", range(0, 50, 4))
def test_fuzz_looped_trace_identity(seed, monkeypatch):
    """Counted-loop corpus: traces build, run and stay bit-identical,
    and fold the metrics sink's histograms like the reference."""
    monkeypatch.setattr(ff_engine, "TRACE_ENTRY_THRESHOLD", 4)
    monkeypatch.setattr(ff_engine, "TRACE_MIN_EDGE", 2)
    arch = ARCH_NAMES[seed % len(ARCH_NAMES)]
    benchmark = looped_fuzz_benchmark(seed)
    _, expected, _ = reference(arch, benchmark)
    runs = {}
    for mode in MODES:
        result, folded, _ = run_observed(arch, benchmark, mode,
                                         capture_events=False)
        assert folded == expected, f"fold != reference ({mode})"
        runs[mode] = result
    assert_state_identical(runs["exact"], runs["ff-instr"])
    assert_state_identical(runs["exact"], runs["ff-blocks"])


@pytest.mark.parametrize("arch", ARCH_NAMES)
@pytest.mark.parametrize("seed", range(0, 50, 10))
def test_fuzz_batched_ring_identity(arch, seed):
    """Sink-only runs (no per-event subscriber) across modes.

    Without per-event subscribers the run is unobserved, so this pass
    fuzzes the fold on the engine paths the stream test above
    bypasses, against the reference loop's per-event fold.
    """
    benchmark = fuzz_benchmark(seed)
    _, expected, _ = reference(arch, benchmark)
    slow, slow_hist, _ = run_observed(arch, benchmark, "exact",
                                      capture_events=False)
    assert slow_hist == expected, "fold != reference (exact)"
    for mode in ("ff-instr", "ff-blocks"):
        fast, fast_hist, _ = run_observed(arch, benchmark, mode,
                                          capture_events=False)
        assert_state_identical(slow, fast)
        assert fast_hist == expected, f"fold != reference ({mode})"
