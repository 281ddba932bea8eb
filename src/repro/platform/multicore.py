"""Cycle-stepped simulator of the 8-core platforms.

Each clock cycle proceeds in two phases:

1. **Request** — every core that committed in the previous cycle starts
   its next instruction and stages its memory requests: the instruction
   fetch plus the previewed data read and/or data write (TamaRISC's
   three ports, all usable in one cycle).  A request stays staged in its
   crossbar until it is granted; a stalled core issues nothing new.
2. **Arbitrate & commit** — the I-Xbar and D-Xbar grant at most one access
   per bank (merging same-address reads into broadcasts), serving only
   the banks with waiters.  A core whose requests are all satisfied
   commits its instruction — register/flag/PC update and the actual
   data transfer — in PID order; a core still missing a grant stalls,
   clock-gated, and waits ("the requests are served alternately while
   the waiting cores are stalled using clock gating", Section III).

A contended cycle thus costs what changes in it, not what is still
waiting: waiting cores are not walked, and their stall cycles settle
lazily, from the retire counts, at window edges and at the run's end.

Because instruction and data *contents* are deterministic, functional
transfer happens at commit time; the crossbars only decide timing and
count activity.  Addresses are stable across stalls because registers are
frozen while a core stalls (a property test asserts preview == commit).

Instructions execute through the decode-cached dispatch table of
:mod:`repro.tamarisc.dispatch` — the same handlers the fast-forward
engine commits with — and data addresses translate inline with the
memory-layout constants hoisted, so a cycle allocates no per-request
objects.  The independent oracle for instruction semantics is the
generic operand walk of :class:`~repro.tamarisc.cpu.Core`, which the
single-core ISS runs (``tests/tamarisc`` cross-checks every platform
against it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import (ConfigurationError, CycleLimitError, HangError,
                          SimulationError)
from repro.interconnect.xbar import Crossbar, bits_of, masters_of
from repro.memory.banked_memory import BankedMemory
from repro.memory.layout import PRIVATE_BASE, IMOrganization
from repro.memory.mmu import MMU
from repro.platform.config import ArchConfig, build_config
from repro.platform.fast_forward import FastForwardEngine
from repro.platform.stats import CoreStats, SimulationStats
from repro.tamarisc.blocks import image_hash
from repro.tamarisc.cpu import Core
from repro.tamarisc.dispatch import compile_program
from repro.tamarisc.program import DataImage, Program


class _ProgramArtifacts:
    """Decode/dispatch products of one program image.

    Keyed by content hash in :data:`_PROGRAM_CACHE`: code is immutable,
    so the decoded instruction list and the compiled dispatch table can
    be shared across systems, repeated loads (a streamed run re-loads
    the same program every block) and farm jobs inside one worker
    process.  Both are read-only after construction; the dispatch table
    is built on first use (every load uses it: both the cycle loop and
    the fast-forward engine execute through it).
    """

    __slots__ = ("decoded", "_compiled")

    def __init__(self, decoded):
        self.decoded = decoded
        self._compiled = None

    def compiled(self):
        if self._compiled is None:
            self._compiled = compile_program(self.decoded)
        return self._compiled


#: Process-level program cache: ``image_hash -> _ProgramArtifacts``.
_PROGRAM_CACHE: dict[str, _ProgramArtifacts] = {}

#: Decode-cache traffic (same contract as
#: :func:`repro.tamarisc.blocks.cache_stats`: process-level, purely
#: diagnostic, never feeds a digest).
_PROGRAM_CACHE_STATS = {"program_hits": 0, "program_misses": 0}


def program_artifacts(program: Program) -> tuple[str, _ProgramArtifacts]:
    """The cached decode/dispatch artifacts for ``program``.

    Returns ``(image_hash, artifacts)``.  Farm workers call this to
    warm the decode table once per process; :meth:`MultiCoreSystem.load`
    goes through it on every load.
    """
    img = image_hash(program.words)
    artifacts = _PROGRAM_CACHE.get(img)
    if artifacts is None:
        artifacts = _ProgramArtifacts(program.decoded())
        _PROGRAM_CACHE[img] = artifacts
        _PROGRAM_CACHE_STATS["program_misses"] += 1
    else:
        _PROGRAM_CACHE_STATS["program_hits"] += 1
    return img, artifacts


def program_cache_clear() -> None:
    """Drop the decode/dispatch cache (tests, cold-cache measurements)."""
    _PROGRAM_CACHE.clear()


def program_cache_size() -> int:
    return len(_PROGRAM_CACHE)


def program_cache_stats() -> dict:
    """Snapshot of the decode-cache traffic counters."""
    return dict(_PROGRAM_CACHE_STATS)


@functools.lru_cache(maxsize=32)
def _fetch_table(im_layout, n_cores: int, program_len: int) -> list:
    """``table[pid][pc]``: the I-Xbar bank of each fetch and its
    :attr:`~repro.interconnect.xbar.Crossbar.read_at` key.

    Built once per (IM layout, core count, program length) in a process
    and shared read-only by every system, so the cycle loop stages a
    fetch with one lookup and short runs do not rebuild it.
    """
    shift = im_layout.banks.bit_length()  # the I-Xbar's key format

    def entry(pid, pc):
        bank, offset = im_layout.locate(pid, pc)
        return bank, offset << shift | bank

    if im_layout.organization == IMOrganization.PRIVATE:
        return [[entry(pid, pc) for pc in range(program_len)]
                for pid in range(n_cores)]
    # Shared IM: the location does not depend on the core.
    return [[entry(0, pc) for pc in range(program_len)]] * n_cores


#: Instruction words are 24-bit.
_INSTR_MASK = 0xFFFFFF

@dataclass
class Benchmark:
    """A complete workload: one program image plus initial data."""

    name: str
    program: Program
    data: DataImage
    #: free-form metadata (expected outputs, op counts, ...)
    meta: dict = field(default_factory=dict)


@dataclass
class SimulationResult:
    """Outcome of one run: statistics plus the final machine for inspection."""

    benchmark: Benchmark
    stats: SimulationStats
    system: "MultiCoreSystem"


class MultiCoreSystem:
    """One platform instance: cores, MMUs, crossbars and memories.

    ``fast_forward`` enables the conflict-free fast-forward execution
    mode (:mod:`repro.platform.fast_forward`): provably conflict-free
    cycles are batch-committed without consulting the crossbars,
    falling back to the exact cycle-stepped loop whenever a potential
    bank conflict is detected.  Results — architectural state and every
    :class:`SimulationStats` field — are bit-identical in either mode
    (the differential suite in ``tests/platform`` enforces this), so
    the fast path is the default and ``fast_forward=False`` selects the
    exact loop as the oracle.  The fast path routes lockstep
    stretches through cached basic-block translations and loop traces
    (:mod:`repro.tamarisc.blocks`) under the same bit-identity contract.
    """

    def __init__(self, config: ArchConfig | str, fast_forward: bool = True):
        if isinstance(config, str):
            config = build_config(config)
        self.config = config
        self.fast_forward = bool(fast_forward)
        self._ff_engine: FastForwardEngine | None = None
        self.im_layout = config.im_layout()
        self.dm_layout = config.dm_layout()
        self.cores = [Core(pid=i) for i in range(config.n_cores)]
        self.mmus = [MMU(i, self.dm_layout) for i in range(config.n_cores)]
        self.imem = BankedMemory(config.im_banks, config.im_bank_words,
                                 name="IM", word_mask=_INSTR_MASK)
        self.dmem = BankedMemory(config.dm_banks, config.dm_bank_words,
                                 name="DM")
        self.ixbar = Crossbar(config.n_cores, config.im_banks,
                              broadcast=config.instr_broadcast, name="I-Xbar")
        self.dxbar = Crossbar(config.n_cores, config.dm_banks,
                              broadcast=config.data_broadcast, name="D-Xbar")
        self.decoded = []
        #: Dispatch table of the loaded program (one handler per PC).
        self.compiled = []
        # In-flight instruction state, PID-indexed and shared with the
        # fast-forward engine, which fills it when it hands a cycle back
        # to the cycle loop: the PC each instruction was fetched from
        # (latched: a fault may move ``core.pc`` while the fetch stalls;
        # -1 once the core halted), its handler and its translated data
        # read/write (bank -1: none).
        n = config.n_cores
        self._fetch_pc = [0] * n
        self._handlers = [None] * n
        self._dr_bank = [-1] * n
        self._dr_off = [0] * n
        self._dw_bank = [-1] * n
        self._dw_off = [0] * n
        self.benchmark: Benchmark | None = None
        #: Each core's retire count when the current run started.
        self._retired_base = [0] * n
        self._dreads_committed = 0
        self._dwrites_committed = 0
        #: Probe bus (:mod:`repro.obs.probes`), lazily created by
        #: :meth:`probe_bus`.  ``None`` — the common case — keeps the
        #: run loop on its zero-instrumentation path.
        self.probes = None

    def probe_bus(self):
        """The system's :class:`~repro.obs.probes.ProbeBus` (created on
        first use).  Subscribe before :meth:`run`; an attached bus with
        no subscribers costs nothing measurable."""
        if self.probes is None:
            from repro.obs.probes import ProbeBus
            self.probes = ProbeBus()
        return self.probes

    # -- loading ------------------------------------------------------------------

    def load(self, benchmark: Benchmark) -> None:
        """Load program and data images; applies IM power gating."""
        program = benchmark.program
        if len(program) == 0:
            raise ConfigurationError("empty program")
        layout = self.im_layout
        if self.config.im_org == IMOrganization.PRIVATE:
            if len(program) > self.config.im_bank_words:
                raise ConfigurationError(
                    "program exceeds a private IM bank")
            for bank in range(self.config.im_banks):
                self.imem.load(bank, 0, program.words)
        else:
            if len(program) > layout.total_words:
                raise ConfigurationError("program exceeds instruction memory")
            for pc, word in enumerate(program.words):
                bank, offset = layout.locate(0, pc)
                self.imem.load(bank, offset, [word])
        if self.config.im_power_gating:
            used = {layout.locate(0, pc)[0] for pc in range(len(program))}
            self.imem.gate_unused(used)

        for logical, value in benchmark.data.shared.items():
            bank, offset = self.dm_layout.translate(0, logical)
            self.dmem.load(bank, offset, [value])
        for core, image in benchmark.data.private.items():
            for logical, value in image.items():
                bank, offset = self.dm_layout.translate(core, logical)
                self.dmem.load(bank, offset, [value])

        img_hash, artifacts = program_artifacts(program)
        self.decoded = artifacts.decoded
        self.compiled = artifacts.compiled()
        for core in self.cores:
            core.reset(entry=program.entry)
        # A load starts a fresh measurement window (streaming runs load
        # one block after another on the same machine).
        self.ixbar.reset()
        self.dxbar.reset()
        self.imem.reset_counters()
        self.dmem.reset_counters()
        for mmu in self.mmus:
            mmu.private_accesses = 0
            mmu.shared_accesses = 0
        self._dreads_committed = 0
        self._dwrites_committed = 0
        if self.fast_forward:
            self._ff_engine = FastForwardEngine(
                self, self.compiled, decoded=self.decoded,
                img_hash=img_hash)
        else:
            self._ff_engine = None
        self.benchmark = benchmark

    # -- inspection helpers ----------------------------------------------------------

    def read_logical(self, core: int, logical: int) -> int:
        """Read one data word through a core's address map (no counting)."""
        bank, offset = self.dm_layout.translate(core, logical)
        return self.dmem.peek(bank, offset)

    def read_logical_block(self, core: int, base: int, count: int) -> list[int]:
        return [self.read_logical(core, base + i) for i in range(count)]

    def block_summary(self):
        """Translation-block statistics of the last run (``None`` when
        the fast-forward engine never attached)."""
        engine = self._ff_engine
        return engine.block_summary() if engine is not None else None

    # -- simulation --------------------------------------------------------------------

    def run(self, benchmark: Benchmark | None = None,
            max_cycles: int = 20_000_000, faults=None) -> SimulationResult:
        """Run until every core executed HLT (or ``max_cycles`` elapse).

        ``faults`` (a :class:`repro.resilience.faults.FaultSession`)
        injects architectural faults at chosen cycles.  The injection
        points sit between cycles — the fast-forward engine is given
        the next fault cycle as a barrier, so both execution modes
        mutate the same architectural state at the same boundary and
        the bit-identity contract survives injection.
        """
        if benchmark is not None:
            self.load(benchmark)
        if self.benchmark is None:
            raise ConfigurationError("no benchmark loaded")

        n = self.config.n_cores
        cores = self.cores
        compiled = self.compiled
        program_len = len(compiled)
        fetch_loc = _fetch_table(self.im_layout, n, program_len)
        ixbar = self.ixbar
        dxbar = self.dxbar
        ixbar.clear()  # a run that raised may have left ports staged
        dxbar.clear()
        i_readers = ixbar.readers
        i_read_at = ixbar.read_at
        d_readers = dxbar.readers
        d_writers = dxbar.writers
        d_read_at = dxbar.read_at
        d_shift = dxbar.key_shift
        i_resolve = ixbar.resolve
        d_resolve = dxbar.resolve
        dm_store = [bank.storage for bank in self.dmem.banks]
        # Data addresses translate inline (MMU.translate without the
        # call), with the layout constants hoisted as the fast-forward
        # engine does.
        mmus = self.mmus
        layout = self.dm_layout
        shared_words = layout.shared_words
        dbn = layout.banks
        swb = layout.shared_words_per_bank
        pwb = layout.private_words_per_bank
        pwc = layout.private_words_per_core
        cbanks = [layout.core_banks(pid) for pid in range(n)]
        core_stats = [CoreStats() for _ in range(n)]
        self._retired_base = [core.retired for core in cores]
        running = set(range(n))
        fetch_pc = self._fetch_pc
        handlers = self._handlers
        dr_bank = self._dr_bank
        dr_off = self._dr_off
        dw_bank = self._dw_bank
        dw_off = self._dw_off
        dreads = dwrites = 0
        engine = self._ff_engine

        # Observability wiring.  With no per-event subscriber (the
        # common case; telemetry windows only read counter snapshots)
        # this costs one attribute load and the per-cycle/per-event
        # local-boolean checks below — measured <2 % end-to-end by
        # benchmarks/bench_obs_overhead.py.  A metrics sink (see
        # ProbeBus.metrics) folds every cycle's sync group and conflict
        # verdict here, and the crossbars count the broadcast widths
        # into it (Crossbar.widths).
        bus = self.probes
        observing = bus is not None and bus.observed
        sink = bus.metrics if bus is not None else None
        p_retire = p_stall = p_mmu = False
        now = 0
        # Telemetry windowing (repro.obs.telemetry): at every multiple
        # of ``win`` committed cycles emit a snapshot of the cumulative
        # counters; the fast-forward engine emits the edges it commits.
        win = bus.window_cycles if bus is not None else 0
        p_win = win > 0 and bus.wants("telemetry.window")
        if observing:
            p_retire = bus.wants("core.retire")
            p_stall = bus.wants("core.stall")
            p_mmu = bus.wants("mmu.translate")
            self._wire_xbar_probes(bus)
        if sink is not None:
            groups, bursts, ixbar.widths, dxbar.widths = sink
            ix_stats, dx_stats = ixbar.stats, dxbar.stats
            conflicts = ix_stats.conflict_events + dx_stats.conflict_events
            burst = burst_end = 0  # the open conflict run: length, cycle

        cycle = 0
        sync_cycles = 0
        # Fault-injection hooks: ``fault_next`` is the next cycle an
        # injection is due (a barrier for the fast-forward engine),
        # ``watchdog`` the hang window (cycles without a single commit
        # fleet-wide).
        fault_next = faults.next_cycle if faults is not None else None
        watchdog = faults.watchdog_window if faults is not None else 0
        last_progress = 0
        # Contention bookkeeping, bit ``pid`` per core: ``starting``,
        # the cores that committed last cycle; ``w_if``/``w_dr``/``w_dw``,
        # those with a fetch / data read / data write staged in a
        # crossbar; ``stuck_mid``, the clock-stuck ones that froze
        # mid-instruction.  Waiting cores cost nothing per cycle (see
        # :meth:`_settle_stalls`).
        run_mask = starting = (1 << n) - 1
        prepared = False
        w_if = w_dr = w_dw = stuck_mid = 0
        try:
            while running:
                if fault_next is not None and cycle >= fault_next:
                    faults.apply_due(self, cycle)
                    fault_next = faults.next_cycle
                    # Injection may have swapped the program image or
                    # disabled the engine; refresh the hoisted locals.
                    engine = self._ff_engine
                    compiled = self.compiled
                    program_len = len(compiled)
                    for pid in faults.dead_cores & running:
                        core_stats[pid].halted_at = cycle
                        running.discard(pid)
                        fetch_pc[pid] = -1
                    gone = run_mask
                    run_mask = sum(1 << pid for pid in running)
                    stuck = sum(1 << pid
                                for pid in faults.stuck_cores & running)
                    # A dead or clock-stuck core withdraws its ports; a
                    # stuck one holds its state and stalls from now on.
                    gone = gone & ~run_mask | stuck
                    stuck_mid |= stuck & (w_if | w_dr | w_dw)
                    for pid in bits_of(gone):
                        ixbar.withdraw(pid)
                        dxbar.withdraw(pid)
                    starting &= ~gone
                    w_if &= ~gone
                    w_dr &= ~gone
                    w_dw &= ~gone
                    last_progress = cycle
                    if not running:
                        break
                if engine is not None and not (w_if | w_dr | w_dw):
                    # The engine needs every running core at an
                    # instruction boundary (no partial grants).
                    cycle, sync_cycles, prepared = engine.advance(
                        running, core_stats, cycle, sync_cycles,
                        max_cycles, fault_next)
                    last_progress = cycle
                    if not running:
                        break
                    # Every running core starts its next instruction,
                    # or (``prepared``) stages the one the engine handed
                    # back with its cycle, translated and counted.
                    run_mask = starting = sum(1 << pid for pid in running)
                    for pid in bits_of((1 << n) - 1 ^ run_mask):
                        fetch_pc[pid] = -1
                    if fault_next is not None and cycle >= fault_next:
                        continue  # inject at the boundary, re-enter
                if cycle >= max_cycles:
                    raise CycleLimitError(
                        f"benchmark {self.benchmark.name!r} did not finish "
                        f"within {max_cycles} cycles on {self.config.name}")
                cycle += 1
                if observing:
                    now = cycle - 1
                    bus.now = now

                # ---- request: start the cores that committed last cycle ----
                # Each instruction's data addresses are translated (and
                # counted) once; its ports then stay staged in the
                # crossbars until granted (Crossbar.stage, inlined).
                # PID order is the crossbars' request order.
                if starting:
                    i_new = d_new = 0
                    for pid in bits_of(starting):
                        bit = 1 << pid
                        core = cores[pid]
                        pc = core.pc
                        if pc >= program_len:
                            raise SimulationError(
                                f"core {pid} ran off the program "
                                f"at PC {pc:#x}")
                        fetch_pc[pid] = pc
                        if not prepared:
                            handler = compiled[pc]
                            handlers[pid] = handler
                            preview = handler.preview
                            if preview is None:
                                dread = dwrite = None
                            else:
                                dread, dwrite = preview(core.regs)
                            if dread is None:
                                dr_bank[pid] = -1
                            else:
                                if dread >= PRIVATE_BASE:
                                    mmus[pid].private_accesses += 1
                                    offset = dread - PRIVATE_BASE
                                    if offset >= pwc:
                                        layout.translate(pid, dread)  # raises
                                    dr_bank[pid] = cbanks[pid][offset // pwb]
                                    dr_off[pid] = swb + offset % pwb
                                else:
                                    mmus[pid].shared_accesses += 1
                                    if dread >= shared_words:
                                        layout.translate(pid, dread)  # raises
                                    dr_bank[pid] = dread % dbn
                                    dr_off[pid] = dread // dbn
                                if p_mmu:
                                    bus.emit("mmu.translate", now, pid,
                                             dread, dr_bank[pid],
                                             dr_off[pid],
                                             dread >= PRIVATE_BASE)
                            if dwrite is None:
                                dw_bank[pid] = -1
                            else:
                                if dwrite >= PRIVATE_BASE:
                                    mmus[pid].private_accesses += 1
                                    offset = dwrite - PRIVATE_BASE
                                    if offset >= pwc:
                                        layout.translate(pid, dwrite)  # raises
                                    dw_bank[pid] = cbanks[pid][offset // pwb]
                                    dw_off[pid] = swb + offset % pwb
                                else:
                                    mmus[pid].shared_accesses += 1
                                    if dwrite >= shared_words:
                                        layout.translate(pid, dwrite)  # raises
                                    dw_bank[pid] = dwrite % dbn
                                    dw_off[pid] = dwrite // dbn
                                if p_mmu:
                                    bus.emit("mmu.translate", now, pid,
                                             dwrite, dw_bank[pid],
                                             dw_off[pid],
                                             dwrite >= PRIVATE_BASE)
                        bank, i_read_at[pid] = fetch_loc[pid][pc]
                        i_readers[bank] |= bit
                        i_new |= 1 << bank
                        bank = dr_bank[pid]
                        if bank >= 0:
                            d_readers[bank] |= bit
                            d_read_at[pid] = dr_off[pid] << d_shift | bank
                            d_new |= 1 << bank
                            w_dr |= bit
                        bank = dw_bank[pid]
                        if bank >= 0:
                            d_writers[bank] |= bit
                            d_new |= 1 << bank
                            w_dw |= bit
                    ixbar.active |= i_new
                    ixbar.reading |= starting
                    if d_new:
                        dxbar.active |= d_new
                        dxbar.reading |= w_dr
                        dxbar.writing |= w_dw
                    w_if |= starting
                    starting = 0
                    prepared = False
                # Lockstep: every running core fetches one PC (halted
                # and dead cores hold fetch PC -1; a stuck core stages
                # no fetch).
                if w_if == run_mask and run_mask & (run_mask - 1) \
                        and fetch_pc.count(
                            fetch_pc[(run_mask & -run_mask).bit_length()
                                     - 1]) == len(running):
                    sync_cycles += 1
                elif sink is not None:
                    # Sync group (the lockstep cycles fold into size 1
                    # when the run ends): a running core counts at its
                    # latched fetch PC (-1 marks the others), except a
                    # stuck one at an instruction boundary, at its PC.
                    free = run_mask & ~(w_if | w_dr | w_dw | stuck_mid)
                    if free:
                        pcs = {cores[pid].pc if free >> pid & 1
                               else fetch_pc[pid]
                               for pid in bits_of(run_mask)}
                    else:
                        pcs = set(fetch_pc)
                        pcs.discard(-1)
                    size = len(pcs)
                    groups[size] = groups.get(size, 0) + 1

                # ---- arbitrate, then commit the fully granted cores ----
                granted = i_resolve()[0]
                w_if ^= granted
                if dxbar.active:
                    d_reads, d_writes = d_resolve()
                    w_dr ^= d_reads
                    w_dw ^= d_writes
                    granted |= d_reads | d_writes
                waiting = w_if | w_dr | w_dw
                done = granted & ~waiting
                if done:
                    last_progress = cycle
                if sink is not None:
                    seen = ix_stats.conflict_events + dx_stats.conflict_events
                    if seen != conflicts:
                        conflicts = seen
                        if burst and burst_end == cycle - 1:
                            burst += 1
                        else:
                            if burst:
                                bursts[burst] = bursts.get(burst, 0) + 1
                            burst = 1
                        burst_end = cycle
                # Commits in PID order (data reads happen at commit).
                # A per-event stall subscriber walks the other running
                # cores too, in the same order.
                for pid in bits_of(run_mask if p_stall else done):
                    bit = 1 << pid
                    if not done & bit:
                        # Stalled on its in-flight instruction, or (stuck
                        # at a boundary) on the one at its PC.
                        bus.emit("core.stall", now, pid,
                                 fetch_pc[pid] if (waiting | stuck_mid) & bit
                                 else cores[pid].pc)
                        continue
                    if p_retire:
                        bus.emit("core.retire", now, pid, fetch_pc[pid])
                    core = cores[pid]
                    bank = dr_bank[pid]
                    if bank >= 0:
                        value = dm_store[bank][dr_off[pid]]
                        dreads += 1
                    else:
                        value = None
                    store = handlers[pid].commit(core, value)
                    if store is not None:
                        dm_store[dw_bank[pid]][dw_off[pid]] = \
                            store[1] & 0xFFFF
                        dwrites += 1
                    if core.halted:
                        core_stats[pid].halted_at = cycle
                        running.discard(pid)
                        run_mask ^= bit
                        fetch_pc[pid] = -1
                    else:
                        starting |= bit
                if watchdog and cycle - last_progress >= watchdog:
                    raise HangError(
                        f"sync watchdog: no core retired for {watchdog} "
                        f"cycles (cycle {cycle}) on {self.config.name}")
                if p_win and not cycle % win:
                    self._emit_window(bus, cycle, False, sync_cycles,
                                      core_stats)
        finally:
            self._dreads_committed += dreads
            self._dwrites_committed += dwrites
            if observing:
                ixbar.probe_conflict = ixbar.probe_broadcast = None
                dxbar.probe_conflict = dxbar.probe_broadcast = None
            if sink is not None:
                ixbar.widths = dxbar.widths = None
                if sync_cycles:  # both engines' multi-core lockstep
                    groups[1] = groups.get(1, 0) + sync_cycles
                if burst:  # runs never join
                    bursts[burst] = bursts.get(burst, 0) + 1

        if p_win:
            # Final (possibly partial) window; doubles as the run
            # separator for streaming consumers.
            self._emit_window(bus, cycle, True, sync_cycles, core_stats)
        else:
            self._settle_stalls(core_stats, cycle)
        return SimulationResult(
            benchmark=self.benchmark,
            stats=self._collect_stats(cycle, sync_cycles, core_stats),
            system=self,
        )

    def _wire_xbar_probes(self, bus) -> None:
        """Hook the crossbars' conflict/broadcast probes to ``bus``
        (the run loop unhooks them when it returns)."""
        for xbar, conflict, broadcast in (
                (self.ixbar, "ixbar.conflict", "im.broadcast"),
                (self.dxbar, "dxbar.conflict", "dm.broadcast")):
            if bus.wants(conflict):
                xbar.probe_conflict = (
                    lambda bank, masters, _event=conflict:
                    bus.emit(_event, bus.now, bank, masters_of(masters)))
            if bus.wants(broadcast):
                xbar.probe_broadcast = (
                    lambda bank, width, _event=broadcast:
                    bus.emit(_event, bus.now, bank, width))

    def _settle_stalls(self, core_stats, cycle: int) -> None:
        """Write every core's stall count as of ``cycle``: a running
        core commits or stalls in every cycle of either engine, so it
        stalled for the cycles it ran minus the instructions it retired
        in this run."""
        base = self._retired_base
        for pid, stats in enumerate(core_stats):
            end = stats.halted_at
            stats.stall_cycles = (cycle if end is None else end) \
                - (self.cores[pid].retired - base[pid])

    def _emit_window(self, bus, cycle, final, sync_cycles, core_stats,
                     im_bc=0, im_sv=0, dm_bc=0, dm_sv=0, mmu_p=(),
                     mmu_s=()) -> None:
        """Emit ``telemetry.window`` with cumulative counter snapshots.

        The fast-forward engine passes the stretch counters it has not
        written back to the crossbars and MMUs yet (it never commits a
        conflict, so it keeps no pending conflict count).
        """
        self._settle_stalls(core_stats, cycle)
        ix, dx = self.ixbar.stats, self.dxbar.stats
        mmus = self.mmus
        bus.emit("telemetry.window", cycle, final,
                 tuple(core.retired for core in self.cores),
                 tuple(cs.stall_cycles for cs in core_stats),
                 (ix.conflict_events, dx.conflict_events,
                  ix.broadcasts + im_bc, dx.broadcasts + dm_bc,
                  ix.broadcast_savings + im_sv,
                  dx.broadcast_savings + dm_sv,
                  sum(m.private_accesses for m in mmus) + sum(mmu_p),
                  sum(m.shared_accesses for m in mmus) + sum(mmu_s),
                  sync_cycles))

    def _collect_stats(self, cycles: int, sync_cycles: int,
                       core_stats: list[CoreStats]) -> SimulationStats:
        for pid, stats in enumerate(core_stats):
            stats.retired = self.cores[pid].retired
        ix, dx = self.ixbar.stats, self.dxbar.stats
        stats = SimulationStats(
            arch=self.config.name,
            total_cycles=cycles,
            cores=core_stats,
            im_bank_accesses=ix.bank_accesses,
            im_fetches=ix.deliveries,
            im_broadcasts=ix.broadcasts,
            im_broadcast_savings=ix.broadcast_savings,
            im_conflict_events=ix.conflict_events,
            im_stalled_requests=ix.stalls,
            im_bank_transitions=ix.total_bank_transitions,
            im_banks_used=self.im_layout.banks_used(
                len(self.decoded), self.config.n_cores),
            im_banks_gated=len(self.imem.gated_banks),
            dm_bank_accesses=dx.bank_accesses,
            dm_broadcasts=dx.broadcasts,
            dm_broadcast_savings=dx.broadcast_savings,
            dm_conflict_events=dx.conflict_events,
            dm_stalled_requests=dx.stalls,
            dm_private_accesses=sum(m.private_accesses for m in self.mmus),
            dm_shared_accesses=sum(m.shared_accesses for m in self.mmus),
            sync_cycles=sync_cycles,
        )
        stats.dm_reads_delivered = self._dreads_committed
        stats.dm_writes_delivered = self._dwrites_committed
        return stats


def build_platform(name_or_config, fast_forward: bool = True,
                   **overrides) -> MultiCoreSystem:
    """Construct a platform by name ("mc-ref", "ulpmc-int", "ulpmc-bank")
    or from an explicit :class:`ArchConfig`."""
    if isinstance(name_or_config, ArchConfig):
        if overrides:
            raise ConfigurationError(
                "pass overrides with a name, not a config object")
        return MultiCoreSystem(name_or_config, fast_forward=fast_forward)
    return MultiCoreSystem(build_config(name_or_config, **overrides),
                           fast_forward=fast_forward)


#: Alias matching the name used in project documentation.
MulticoreSimulator = MultiCoreSystem
