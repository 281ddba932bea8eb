"""The cycle loop against a straightforward reference loop.

``MultiCoreSystem.run`` executes the compiled dispatch table, keeps each
port staged in the crossbars until it is granted and settles stall
cycles lazily.  The reference
(:func:`tests.interconnect.reference_loop.reference_run`) is the loop
written the plain way — every waiting port restaged as a request each
cycle and arbitrated by the list-form crossbar, the generic operand
walk of :class:`~repro.tamarisc.cpu.Core` for previews and commits, a
set of fetch PCs for lockstep detection, one stall counted per core and
cycle — and the platform's engines (exact, per-instruction, default)
must reproduce it bit for bit on configurations where cores
desynchronise, stall with partial grants and contend for banks — also
when a fault moves a core's PC while its fetch is stalled, sticks a
core's clock or kills it.  The crossbar's own arbitration is checked
against the list-form crossbar in ``tests/interconnect/test_xbar.py``.
"""

import random
from unittest import mock

import pytest

from repro.errors import SimulationError
from repro.kernels import BenchmarkSpec, build_benchmark
from repro.memory.layout import PRIVATE_BASE
from repro.platform import ARCH_NAMES, Benchmark, build_platform
from repro.platform import fast_forward as ff_engine
from repro.resilience import FaultSession, FaultSpec
from repro.tamarisc.assembler import assemble
from repro.tamarisc.program import DataImage
from repro.tamarisc.regression import SANDBOX_WORDS, generate_random_program

from tests.interconnect.reference_loop import MAX_CYCLES, reference_run

#: The platform's engines: ``(fast_forward, TRANSLATION_BLOCKS)``.  The
#: per-instruction one proves every conflict-free cycle on its own.
ENGINES = {"exact": (False, True), "per-instruction": (True, False),
           "default": (True, True)}

#: Broadcast ablations: without a broadcast bus the cores desynchronise
#: and contend for banks.
CONTENTION = [{}, {"instr_broadcast": False}, {"data_broadcast": False},
              {"instr_broadcast": False, "data_broadcast": False}]


def outcome(system, run):
    """Stats plus final machine state, or the error a run raised plus
    the machine state and crossbar statistics it stopped at."""
    machine = ([(core.regs, core.pc, core.flags, core.halted, core.retired)
                for core in system.cores],
               [bank.storage for bank in system.dmem.banks])
    try:
        stats = run()
    except SimulationError as exc:
        return (type(exc).__name__, str(exc), *machine,
                vars(system.ixbar.stats), vars(system.dxbar.stats),
                system._dreads_committed, system._dwrites_committed)
    return (stats, *machine)


def assert_matches_reference(arch, benchmark, overrides, fault_specs=None,
                             watchdog=50_000):
    def session():
        return None if fault_specs is None \
            else FaultSession(fault_specs, watchdog_window=watchdog)

    system = build_platform(arch, fast_forward=False, **overrides)
    expected = outcome(system, lambda: reference_run(
        system, benchmark, faults=session()))
    for engine, (fast_forward, blocks) in ENGINES.items():
        system = build_platform(arch, fast_forward=fast_forward, **overrides)
        with mock.patch.object(ff_engine, "TRANSLATION_BLOCKS", blocks):
            measured = outcome(system, lambda: system.run(
                benchmark, max_cycles=MAX_CYCLES, faults=session()).stats)
        assert measured == expected, engine
    return expected


def fuzz_benchmark(seed):
    """Full-ISA random program; per-core sandboxes make the cores take
    different branches, so they desynchronise."""
    program = generate_random_program(seed, length=40, full_coverage=True)
    rng = random.Random(seed)
    data = DataImage()
    for pid in range(8):
        data.set_private_block(
            pid, PRIVATE_BASE,
            [rng.randrange(0x10000) for __ in range(SANDBOX_WORDS)])
    return Benchmark(f"fuzz-{seed}", program, data)


@pytest.mark.parametrize("overrides", CONTENTION)
@pytest.mark.parametrize("arch", ARCH_NAMES)
@pytest.mark.parametrize("seed", range(0, 48, 8))
def test_random_corpus(seed, arch, overrides):
    assert_matches_reference(arch, fuzz_benchmark(seed), overrides)


#: Every core adds its own value to one shared word, read-modify-write,
#: for its own trip count.  Under contention a core's load of the word
#: can be granted a cycle before its fetch, and another core's store to
#: the word then commits in the same cycle: the sum depends on the
#: commit order within a cycle (PID order; data reads happen at commit).
RACE_SOURCE = """
    li  r1, 0x4000
    mov r2, [r1]
    add r1, r1, #1
    mov r4, [r1]
    li  r3, 0x40
loop:
    add r5, [r3], r2
    mov [r3], r5
    add r6, [r3], #1
    mov [r3], r6
    sub r4, r4, #1
    bne loop
    hlt
"""


@pytest.mark.parametrize("overrides", CONTENTION)
@pytest.mark.parametrize("arch", ARCH_NAMES)
def test_shared_word_race(arch, overrides):
    data = DataImage()
    data.set_shared_block(0x40, [0])
    for pid in range(8):
        data.set_private_block(pid, PRIVATE_BASE,
                               [3 * pid + 1, 12 + pid % 5])
    assert_matches_reference(
        arch, Benchmark("shared-race", assemble(RACE_SOURCE), data),
        overrides)


@pytest.fixture(scope="module")
def tiny_ecg():
    return build_benchmark(BenchmarkSpec(n_samples=32, n_measurements=16))


@pytest.mark.parametrize("overrides", CONTENTION)
@pytest.mark.parametrize("arch", ["ulpmc-int", "ulpmc-bank"])
def test_ecg_kernel(tiny_ecg, arch, overrides):
    assert_matches_reference(arch, tiny_ecg.benchmark, overrides)


class _FetchStallProbe(FaultSession):
    """Records the cores whose fetch is still pending at every cycle
    boundary (a fault session due every cycle, injecting nothing)."""

    def __init__(self):
        super().__init__(())
        self.due = 1
        self.stalled = []  # (cycle, [pid, ...])

    @property
    def next_cycle(self):
        return self.due

    def apply_due(self, system, cycle):
        pids = [pid for pid, key in enumerate(system.ixbar.read_at)
                if key >= 0]
        if pids:
            self.stalled.append((cycle, pids))
        self.due = cycle + 1


class _ContentionStateProbe(_FetchStallProbe):
    """Checks at every cycle boundary that the crossbars' summary masks
    agree with their per-bank state (the cycle loop stages inline)."""

    waits = 0  # boundaries with a port still staged

    def apply_due(self, system, cycle):
        for xbar in (system.ixbar, system.dxbar):
            self.waits += bool(xbar.active)
            reading = writing = active = 0
            for bank in range(xbar.banks):
                reading |= xbar.readers[bank]
                writing |= xbar.writers[bank]
                if xbar.readers[bank] | xbar.writers[bank]:
                    active |= 1 << bank
            assert (xbar.reading, xbar.writing, xbar.active) \
                == (reading, writing, active), (xbar.name, cycle)
            assert [key >= 0 for key in xbar.read_at] \
                == [bool(reading >> master & 1)
                    for master in range(xbar.masters)], (xbar.name, cycle)
        super().apply_due(system, cycle)


@pytest.mark.parametrize("overrides", CONTENTION[1:])
@pytest.mark.parametrize("fast_forward", [False, True])
def test_crossbar_summary_masks_track_staged_ports(fast_forward,
                                                   overrides):
    probe = _ContentionStateProbe()
    build_platform("ulpmc-int", fast_forward=fast_forward,
                   **overrides).run(fuzz_benchmark(8), faults=probe)
    assert probe.waits > 20, "no contention exercised"


class _IXbarStateProbe(_ContentionStateProbe):
    """Also records the I-Xbar's staged ports, last granted banks and
    arbiters at every cycle boundary."""

    def __init__(self):
        super().__init__()
        self.log = []

    def apply_due(self, system, cycle):
        ixbar = system.ixbar
        self.log.append((cycle, list(ixbar.readers), list(ixbar.read_at),
                         ixbar.reading, ixbar.active,
                         list(ixbar._last_bank),
                         [(arbiter.pointer, arbiter.grants)
                          for arbiter in ixbar.arbiters]))
        super().apply_due(system, cycle)


@pytest.mark.parametrize("overrides", CONTENTION[1:3])
def test_serialised_round_exits_restage_the_waiting_fetches(overrides):
    """A fault session due every cycle ends every serialised round after
    one cycle: each exit must leave the I-Xbar's staged ports, last
    granted banks and arbiters where resolve() left them in ``--exact``
    at the same boundary."""
    logs = []
    for fast_forward in (False, True):
        probe = _IXbarStateProbe()
        system = build_platform("ulpmc-bank", fast_forward=fast_forward,
                                **overrides)
        system.run(fuzz_benchmark(8), faults=probe)
        assert probe.waits > 20, "no contention exercised"
        logs.append(probe.log)
    assert system.block_summary()["round_cycles"] > 0
    assert logs[1] == logs[0]


def fetch_stalls(arch, benchmark, overrides=None):
    """``[(cycle, pid), ...]``: the boundaries at which a core waits for
    its instruction fetch (first stalled core of each)."""
    probe = _FetchStallProbe()
    build_platform(arch, fast_forward=False, **(overrides or {})).run(
        benchmark, faults=probe)
    return [(cycle, pids[0]) for cycle, pids in probe.stalled]


@pytest.mark.parametrize("nth,mask", [(0, 1 << 14), (2, 1), (3, 1 << 3)])
@pytest.mark.parametrize("arch", ["ulpmc-int", "ulpmc-bank"])
def test_pc_fault_during_fetch_stall(tiny_ecg, arch, nth, mask):
    """The stalled fetch completes from the PC it started with; the
    flipped PC only takes effect after the commit (bit 14 sends it off
    the program, which the next instruction start detects)."""
    stalls = fetch_stalls(arch, tiny_ecg.benchmark)
    assert len(stalls) > nth, f"too few fetch stalls on {arch}"
    cycle, pid = stalls[nth]
    expected = assert_matches_reference(
        arch, tiny_ecg.benchmark, {},
        fault_specs=(FaultSpec("pc", cycle, pid, mask=mask),))
    if mask == 1 << 14:
        assert expected[0] == "SimulationError"
        assert f"core {pid} ran off the program" in expected[1]


@pytest.mark.parametrize("kinds", [("stuck",), ("dead",), ("stuck", "dead")])
@pytest.mark.parametrize("arch,overrides",
                         [("ulpmc-bank", {"instr_broadcast": False}),
                          ("ulpmc-int", {"data_broadcast": False})])
def test_stuck_and_dead_cores_while_fetch_waits(tiny_ecg, arch, overrides,
                                                kinds):
    """A core sticks or dies while its fetch waits on a contended bank:
    its staged ports are withdrawn, and its stall cycles — settled
    lazily by the platform — match the reference's per-cycle count.  A
    core that only sticks trips the watchdog once the others halted."""
    stalls = fetch_stalls(arch, tiny_ecg.benchmark, overrides)
    assert len(stalls) > 100, f"too few fetch stalls on {arch}"
    cycle, pid = stalls[len(stalls) // 3]
    specs = tuple(FaultSpec(kind, cycle + 300 * index, pid)
                  for index, kind in enumerate(kinds))
    expected = assert_matches_reference(arch, tiny_ecg.benchmark, overrides,
                                        fault_specs=specs, watchdog=2_000)
    if kinds == ("stuck",):
        assert expected[0] == "HangError"
    else:
        core = expected[0].cores[pid]
        assert core.halted_at == specs[-1].cycle
        assert core.stall_cycles >= 300 * (len(kinds) - 1)


#: Serialised geometries off the paper's: ulpmc-bank with 2, 3 and 5
#: cores (DM banks divisible by the core count).  The default engine's
#: serialised rounds pick each cycle's winner, count the other cores'
#: stalls and need two running cores, all of which depend on how many
#: cores run.
SERIAL_GEOMETRIES = {2: 16, 3: 6, 5: 10}

#: Fault scenarios: none, a core sticking, dying, or sticking and
#: dying 300 cycles later.
FAULT_KINDS = {"clean": (), "stuck": ("stuck",), "dead": ("dead",),
               "stuck-then-dead": ("stuck", "dead")}


@pytest.fixture(scope="module", params=list(SERIAL_GEOMETRIES),
                ids=lambda cores: f"{cores}-cores")
def serial_ecg(request):
    cores = request.param
    return cores, build_benchmark(BenchmarkSpec(
        n_leads=cores, n_samples=32, n_measurements=16))


@pytest.mark.parametrize("kinds", list(FAULT_KINDS.values()),
                         ids=list(FAULT_KINDS))
@pytest.mark.parametrize("overrides", CONTENTION)
def test_serialised_rounds_off_paper_geometry(serial_ecg, overrides,
                                              kinds):
    cores, built = serial_ecg
    overrides = dict(overrides, n_cores=cores,
                     dm_banks=SERIAL_GEOMETRIES[cores])
    specs = tuple(FaultSpec(kind, 1500 + 300 * index, cores // 2)
                  for index, kind in enumerate(kinds)) or None
    expected = assert_matches_reference("ulpmc-bank", built.benchmark,
                                        overrides, fault_specs=specs,
                                        watchdog=2_000)
    if kinds == ("stuck",):
        assert expected[0] == "HangError"
    elif not kinds and not overrides.get("instr_broadcast", True):
        system = build_platform("ulpmc-bank", **overrides)
        stats = system.run(built.benchmark).stats
        assert system.block_summary()["round_cycles"] \
            >= 0.95 * stats.total_cycles
