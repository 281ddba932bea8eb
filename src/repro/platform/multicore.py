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

:meth:`MultiCoreSystem.run` is one loop with three shortcuts.  A cycle
that starts with no port staged takes a translation block (one pass of
a straight-line run) or a loop trace (whole iterations of a hot loop,
a one-block loop included; :mod:`repro.tamarisc.blocks`) while the
running cores share one PC, else a proof that the started ports are
conflict-free (one access, or one same-offset broadcast group, per
bank), which commits the cycle without arbitration.  A rejected proof,
or a block's conflict exit, stages the ports it translated.  A
*serialised* cycle (one IM bank in use, every running core waiting on
it or starting, no data port waiting) has a known winner, the bank's
round-robin choice: serialised rounds commit such cycles in a tight
inner loop and count what ``resolve()`` would have.  ``--exact`` runs
the loop without shortcuts (see :mod:`repro.platform.fast_forward`).

Because instruction and data *contents* are deterministic, functional
transfer happens at commit time; the crossbars only decide timing and
count activity.  Addresses are stable across stalls because registers are
frozen while a core stalls (a property test asserts preview == commit).

Instructions execute through the decode-cached dispatch table of
:mod:`repro.tamarisc.dispatch`, whose handlers are generated from the
source templates the blocks and loop traces splice too, so the loop and
its shortcuts run one copy of the instruction semantics.  Data
addresses translate inline with the memory-layout constants hoisted, so
a cycle allocates no per-request objects.  The independent oracle for
instruction semantics is the generic operand walk of
:class:`~repro.tamarisc.cpu.Core`, which the single-core ISS runs
(``tests/tamarisc`` checks every handler shape and every platform core
against it).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.errors import (ConfigurationError, CycleLimitError, HangError,
                          SimulationError)
from repro.interconnect.xbar import Crossbar, bits_of
from repro.memory.banked_memory import BankedMemory
from repro.memory.layout import PRIVATE_BASE, IMOrganization
from repro.memory.mmu import MMU
from repro.platform.config import ArchConfig, build_config
from repro.platform import fast_forward
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
    the fast-forward engine execute through it), compiling each distinct
    handler source once per process.
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

    ``fast_forward`` turns on the cycle loop's shortcuts (see
    :meth:`run` and :mod:`repro.platform.fast_forward`): provably
    conflict-free cycles commit without consulting the crossbars, and
    lockstep stretches run through cached basic-block translations and
    loop traces (:mod:`repro.tamarisc.blocks`).  Results — architectural
    state and every :class:`SimulationStats` field — are bit-identical
    either way (the differential suite in ``tests/platform`` enforces
    this), so the shortcuts are the default and ``fast_forward=False``
    runs the same loop without them as the oracle.
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
        # Each in-flight instruction's translated data read/write,
        # PID-indexed (bank -1: none).  Translation blocks bind these
        # arrays and fill them at a conflict exit.
        n = config.n_cores
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
            self._ff_engine = FastForwardEngine(self, self.decoded, img_hash)
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
        points sit between cycles and blocks and loop traces never
        commit past the next one, so both execution modes mutate the
        same architectural state at the same boundary and the
        bit-identity contract survives injection.
        """
        if benchmark is not None:
            self.load(benchmark)
        if self.benchmark is None:
            raise ConfigurationError("no benchmark loaded")

        config = self.config
        n = config.n_cores
        cores = self.cores
        compiled = self.compiled
        program_len = len(compiled)
        fetch_loc = _fetch_table(self.im_layout, n, program_len)
        pc_bank = [bank for bank, _ in fetch_loc[0]]  # shared IM only
        im_private = config.im_org == IMOrganization.PRIVATE
        i_broadcast = config.instr_broadcast
        d_broadcast = config.data_broadcast
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
        # Every master's last granted bank, which resolve() and the
        # conflict-free paths both keep up to date.
        ilast = ixbar._last_bank
        dlast = dxbar._last_bank
        dm_store = [bank.storage for bank in self.dmem.banks]
        # Data addresses translate inline (MMU.translate without the
        # call), with the layout constants hoisted.
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
        # In-flight instructions: the PC each was fetched from (latched:
        # a fault may move ``core.pc`` while the fetch stalls; -1 once
        # the core halted) and its handler.
        fetch_pc = [0] * n
        handlers = [None] * n
        dr_bank = self._dr_bank
        dr_off = self._dr_off
        dw_bank = self._dw_bank
        dw_off = self._dw_off
        # Run accumulators, which _flush adds to the crossbars, MMUs and
        # system at every telemetry window edge and when the run ends:
        # MMU translations and data transfers, and the crossbar activity
        # of the cycles no crossbar resolved.  ``bacc`` is shared with
        # the generated code (repro.tamarisc.blocks): slots 0-5 D-Xbar
        # counts and data transfers, 6 a block's fault depth, 7-9 a
        # trace's per-arm iteration counts and last arm.
        im_acc = im_del = im_bc = im_sv = dreads = dwrites = 0
        itrans = [0] * n
        dtrans = [0] * n
        mmu_p = [0] * n
        mmu_s = [0] * n
        bacc = [0, 0, 0, 0, 0, 0, -1, 0, 0, 0]

        # Observability wiring.  With no per-cycle subscriber (the
        # common case; telemetry windows only read counter snapshots)
        # this costs one attribute load and the per-cycle/per-event
        # local-boolean checks below — measured <2 % end-to-end by
        # benchmarks/bench_obs_overhead.py.  A metrics sink (see
        # ProbeBus.metrics) folds every cycle's sync group and conflict
        # verdict here, and the crossbars count the broadcast widths
        # into it (Crossbar.widths); blocks and traces add theirs as
        # constants.
        bus = self.probes
        observing = bus is not None and bus.observed
        sink = bus.metrics if bus is not None else None
        emit = None
        p_retire = p_stall = p_exit = False
        win = bus.window_cycles if bus is not None else 0
        p_win = win > 0 and bus.wants("telemetry.window")
        if observing:
            emit = bus.emit
            p_retire = bus.wants("core.retire")
            p_stall = bus.wants("core.stall")
            p_exit = bus.wants("ff.exit")
        im_width = dm_width = None
        if sink is not None:
            groups, bursts, im_width, dm_width = sink
            ixbar.widths, dxbar.widths = im_width, dm_width
            ix_stats, dx_stats = ixbar.stats, dxbar.stats
            conflicts = ix_stats.conflict_events + dx_stats.conflict_events
            burst = burst_end = 0  # the open conflict run: length, cycle

        # The shortcuts' per-load state (fast_forward.FastForwardEngine).
        engine = self._ff_engine
        if engine is not None:
            blocks_any = engine._blocks
            blocks_static = engine._blocks_static
            trace_recs = engine._trace_recs
            succ = engine._succ
            pc_entries = engine._pc_entries
            # Loop traces and their successor profile run unless a
            # per-cycle subscriber needs the per-cycle event stream.
            profiling = blocks_any and engine._traces and not observing
            trace_every = fast_forward.TRACE_ENTRY_THRESHOLD
        # Serialised rounds need one shared IM bank in use; like traces,
        # they synthesise no per-cycle events.
        im_bank = pc_bank[0]
        im_arbiter = ixbar.arbiters[im_bank]
        rounds = engine is not None and not observing and not im_private \
            and pc_bank.count(im_bank) == program_len

        cycle = 0
        sync_cycles = 0
        # Fault-injection hooks: ``fault_next`` is the next cycle an
        # injection is due, ``watchdog`` the hang window (cycles without
        # a single commit fleet-wide).
        fault_next = faults.next_cycle if faults is not None else None
        watchdog = faults.watchdog_window if faults is not None else 0
        last_progress = 0
        # Telemetry windowing (repro.obs.telemetry): a snapshot of the
        # cumulative counters at every multiple of ``win`` committed
        # cycles.  ``edge`` is the next one; ``cap`` bounds block and
        # trace budgets by it, the next fault and ``max_cycles``, so
        # they are hit exactly, never jumped over.
        edge = win if p_win else max_cycles + 1
        cap = min(edge, max_cycles,
                  max_cycles if fault_next is None else fault_next)
        # Contention bookkeeping, bit ``pid`` per core: ``starting``,
        # the cores that committed last cycle; ``w_if``/``w_dr``/``w_dw``,
        # those with a fetch / data read / data write staged in a
        # crossbar; ``stuck_mid``, the clock-stuck ones that froze
        # mid-instruction.  Waiting cores cost nothing per cycle (see
        # :meth:`_settle_stalls`).
        run_mask = starting = (1 << n) - 1
        w_if = w_dr = w_dw = stuck_mid = 0
        # Conflict-free stretches: ``stretch`` is the cycle the current
        # one began (-1: none).  One ends at a rejected proof, a block's
        # conflict exit, a fault barrier or the end of the run.
        # ``succ_pc``/``succ_cycle`` are the last block entry (its
        # successor edges feed the trace profile), ``trace_skip`` the
        # anchor whose trace just ran: the next iteration is exactly the
        # one that bailed, so re-entering at once would be a sure
        # decline.  ``run_cores`` holds the cores of ``cores_mask``.
        stretch = succ_pc = succ_cycle = trace_skip = -1
        cores_mask = 0
        run_cores = []
        try:
            while True:
                if cycle == edge:
                    self._flush((im_acc, im_del, im_bc, im_sv), bacc,
                                itrans, dtrans, mmu_p, mmu_s, dreads,
                                dwrites)
                    im_acc = im_del = im_bc = im_sv = dreads = dwrites = 0
                    self._emit_window(bus, cycle, False, sync_cycles,
                                      core_stats)
                    edge += win
                    cap = min(edge, max_cycles, max_cycles
                              if fault_next is None else fault_next)
                if not running:
                    break
                if fault_next is not None and cycle >= fault_next:
                    if stretch >= 0:
                        if p_exit:
                            emit("ff.exit", cycle, cycle - stretch)
                        stretch = -1
                    faults.apply_due(self, cycle)
                    fault_next = faults.next_cycle
                    cap = min(edge, max_cycles, max_cycles
                              if fault_next is None else fault_next)
                    # Injection may have swapped the program image or
                    # dropped the engine; refresh the hoisted locals.
                    engine = self._ff_engine
                    rounds = rounds and engine is not None
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
                # With no port staged every running core sits at an
                # instruction boundary, so an attached engine may take
                # a shortcut: a block or loop trace when the cores share
                # one PC, else the conflict-free proof of the cycle.
                proving = engine is not None and not (w_if | w_dr | w_dw)
                if proving and stretch < 0:
                    stretch = cycle
                    succ_pc = trace_skip = -1
                if cycle >= max_cycles:
                    raise CycleLimitError(
                        f"benchmark {self.benchmark.name!r} did not finish "
                        f"within {max_cycles} cycles on {self.config.name}")
                # The cores that start an instruction, and the ones whose
                # ports this cycle stages (a block's conflict exit starts
                # none: it translated them already).
                fresh = staged = bits_of(starting) if starting else ()

                # ---- serialised rounds ----
                # Every running core waits on the one IM bank in use (or
                # starts), no data port waits: the arbiter's winner is the
                # next running core, so a tight loop commits the winners
                # and counts what resolve() would, up to ``cap``, a halt or
                # a cycle all cores commit; data ports sharing a bank go to
                # the staged path (``rest``: left to start).  Sharing that
                # path's start and commit steps cost --exact 1.4% more opcodes.
                if rounds and w_if and not (w_dr | w_dw) \
                        and (w_if | starting) == run_mask \
                        and run_mask & (run_mask - 1):
                    first = cycle
                    stop = cap
                    order = bits_of(run_mask)
                    n_run = len(order)
                    ptr = im_arbiter.pointer
                    turn = sum(pid < ptr for pid in order)  # next winner
                    starters = bits_of(starting)
                    rest = None
                    stall = saved = calm = 0
                    try:
                        while True:
                            # Start the cores that committed last cycle.
                            ports = taken = 0
                            for pid in starters:
                                core = cores[pid]
                                pc = core.pc
                                if pc >= program_len:  # the staged path raises
                                    rest = starters[starters.index(pid):]
                                    break
                                fetch_pc[pid] = pc
                                handler = compiled[pc]
                                handlers[pid] = handler
                                preview = handler.preview
                                if preview is None:
                                    dr_bank[pid] = dw_bank[pid] = -1
                                    continue
                                dread, dwrite = preview(core.regs)
                                if dread is None:
                                    dr_bank[pid] = -1
                                else:
                                    if dread >= PRIVATE_BASE:
                                        mmu_p[pid] += 1
                                        offset = dread - PRIVATE_BASE
                                        if offset >= pwc:
                                            layout.translate(pid, dread)
                                        bank = cbanks[pid][offset // pwb]
                                        dr_off[pid] = swb + offset % pwb
                                    else:
                                        mmu_s[pid] += 1
                                        if dread >= shared_words:
                                            layout.translate(pid, dread)
                                        bank = dread % dbn
                                        dr_off[pid] = dread // dbn
                                    dr_bank[pid] = bank
                                    taken |= 1 << bank
                                    ports += 1
                                if dwrite is None:
                                    dw_bank[pid] = -1
                                else:
                                    if dwrite >= PRIVATE_BASE:
                                        mmu_p[pid] += 1
                                        offset = dwrite - PRIVATE_BASE
                                        if offset >= pwc:
                                            layout.translate(pid, dwrite)
                                        bank = cbanks[pid][offset // pwb]
                                        dw_off[pid] = swb + offset % pwb
                                    else:
                                        mmu_s[pid] += 1
                                        if dwrite >= shared_words:
                                            layout.translate(pid, dwrite)
                                        bank = dwrite % dbn
                                        dw_off[pid] = dwrite // dbn
                                    dw_bank[pid] = bank
                                    taken |= 1 << bank
                                    ports += 1
                            if rest is not None:
                                break
                            if ports:  # distinct banks: granted at once
                                if taken.bit_count() != ports:
                                    rest = ()
                                    break
                                bacc[0] += ports
                                bacc[1] += ports
                                for pid in starters:
                                    last = dlast[pid]
                                    for bank in dr_bank[pid], dw_bank[pid]:
                                        if bank >= 0:
                                            if last is not None \
                                                    and last != bank:
                                                dtrans[pid] += 1
                                            last = bank
                                    dlast[pid] = last
                            # The winner, with the cores at its fetch PC
                            # on a broadcast bus; the others stall.
                            winner = order[turn % n_run]
                            pc = fetch_pc[winner]
                            same = fetch_pc.count(pc)
                            if same == n_run:
                                sync_cycles += 1
                            elif sink is not None:
                                size = len(set(fetch_pc) - {-1})
                                groups[size] = groups.get(size, 0) + 1
                            if same == 1 or not i_broadcast:
                                turn += 1
                                stall += n_run - 1
                                starters = (winner,)
                            else:
                                starters = bits_of(sum(
                                    1 << pid for pid in order
                                    if fetch_pc[pid] == pc))
                                im_bc += 1
                                saved += same - 1
                                if sink is not None:
                                    im_width[same] = im_width.get(same, 0) + 1
                                if same < n_run:  # a conflict
                                    turn += 1
                                    stall += n_run - same
                                else:  # no conflict; the round ends
                                    calm = 1
                                    stop = cycle + 1
                            cycle += 1
                            for pid in starters:
                                ilast[pid] = im_bank  # no transition
                                core = cores[pid]
                                bank = dr_bank[pid]
                                if bank >= 0:
                                    value = dm_store[bank][dr_off[pid]]
                                    dreads += 1
                                else:
                                    value = None
                                word = handlers[pid].commit(core, value)
                                if word is not None:
                                    dm_store[dw_bank[pid]][dw_off[pid]] = word
                                    dwrites += 1
                                if core.halted:
                                    core_stats[pid].halted_at = cycle
                                    running.discard(pid)
                                    run_mask ^= 1 << pid
                                    fetch_pc[pid] = -1
                                    stop = cycle
                            if cycle >= stop:
                                break
                    finally:  # flush the counts, restage the waiters
                        done = cycle - first
                        conf = done - calm
                        engine.fast_cycles += done
                        engine.round_cycles += done
                        im_acc += done
                        im_del += done + saved
                        im_sv += saved
                        im_arbiter.pointer = ptr if not conf \
                            else (order[(turn - 1) % n_run] + 1) % n
                        im_arbiter.grants += conf
                        ixbar.stats.conflict_events += conf
                        ixbar.stats.stalls += stall
                        starting = sum(1 << pid for pid in starters
                                       if not cores[pid].halted)
                        w_if = run_mask & ~starting
                        i_readers[im_bank] = ixbar.reading = w_if
                        ixbar.active = 1 << im_bank if w_if else 0
                        for pid in range(n):
                            i_read_at[pid] = fetch_loc[pid][fetch_pc[pid]][1] \
                                if w_if >> pid & 1 else -1
                        if done:
                            last_progress = cycle
                        if sink is not None and conf:  # from first + 1
                            conflicts += conf
                            if burst and burst_end == first:
                                burst += conf
                            else:
                                if burst:
                                    bursts[burst] = bursts.get(burst, 0) + 1
                                burst = conf
                            burst_end = first + conf
                    if rest is None:
                        continue
                    fresh, staged = rest, starters

                # ---- translation blocks and loop traces ----
                # When every running core sits at the same PC (or one
                # core runs free) the whole straight-line block starting
                # there commits in a single specialised call.  Within
                # the block every cycle is a lockstep fetch by
                # construction; divergence can only happen at the
                # terminator, after which this check simply fails and
                # the cycle proof takes over.
                if proving and (blocks_static
                                or blocks_any and len(running) == 1):
                    if cores_mask != run_mask:
                        cores_mask = run_mask
                        run_cores = [cores[pid] for pid in bits_of(run_mask)]
                    n_run = len(run_cores)
                    first_pc = run_cores[0].pc
                    entering = first_pc < program_len \
                        and run_cores[-1].pc == first_pc
                    if entering and n_run > 2:
                        for core in run_cores:
                            if core.pc != first_pc:
                                entering = False
                                break
                    if entering:
                        # A committed stretch of ``j`` lockstep cycles
                        # fetches from bank ``fb0`` first and ``fbl`` last
                        # (None: private I-banks), with ``internal`` bank
                        # transitions in between.
                        j = 0
                        rec = None
                        # A registered trace at this PC commits whole loop
                        # iterations, computing each once for all cores; it
                        # declines (j == 0) when the cores enter with
                        # differing uniform-classified state or the very
                        # first iteration leaves the traced path, leaving
                        # state untouched for the block path below.
                        # Committed iterations are all-lockstep and
                        # conflict-free by construction, so the statistics
                        # fold to compile-time constants times the
                        # iteration count.
                        if profiling and first_pc != trace_skip:
                            trace_skip = -1
                            trec = trace_recs.get(first_pc)
                            if trec is not None \
                                    and cycle + trec[1] <= cap:
                                engine.trace_entries += 1
                                trec[4] += 1
                                dm_before = bacc[2]
                                j = trec[0](run_cores, mmu_p, mmu_s, dlast,
                                            dtrans, bacc, cap - cycle)
                                if j:
                                    engine.trace_cycles += j
                                    # Every shared read of the trace is
                                    # one n_run-wide DM broadcast.
                                    if sink is not None and n_run > 1 \
                                            and bacc[2] != dm_before:
                                        dm_width[n_run] = \
                                            dm_width.get(n_run, 0) \
                                            + bacc[2] - dm_before
                                    fb0 = trec[2]
                                    if fb0 is not None:
                                        # Per-arm iteration counts (and the
                                        # last arm run) reported by the
                                        # generated code; fetch-bank
                                        # transitions fold from per-arm
                                        # constants.  The wrap between
                                        # consecutive iterations counts on
                                        # the *earlier* iteration's arm,
                                        # and the final iteration has no
                                        # following wrap.
                                        it_a = bacc[7]
                                        it_b = bacc[8]
                                        arm_a, arm_b = trec[3]
                                        internal = \
                                            arm_a[0] * it_a \
                                            + arm_b[0] * it_b \
                                            + arm_a[1] * it_a \
                                            + arm_b[1] * it_b
                                        if bacc[9]:
                                            internal -= arm_a[1]
                                            fbl = arm_a[2]
                                        else:
                                            internal -= arm_b[1]
                                            fbl = arm_b[2]
                                    succ_pc = -1
                                    trace_skip = first_pc
                                else:
                                    trec[5] += 1
                                    if trec[5] * 4 > trec[4] + 8:
                                        # Thrashing trace: the loop no
                                        # longer behaves as profiled.  Drop
                                        # it and block rebuilds here.
                                        del trace_recs[first_pc]
                                        engine._trace_tried.add(first_pc)
                        if not j:
                            rec = engine._block_at(first_pc)
                            if rec is not None and cycle + rec[1] > cap:
                                rec = None
                        if rec is not None:
                            # rec = (block, total, run, handlers, fb_seq,
                            #        fb_cum, halts)
                            engine.block_entries += 1
                            if profiling:
                                count = pc_entries.get(first_pc, 0) + 1
                                pc_entries[first_pc] = count
                                if count % trace_every == 0 \
                                        and first_pc not in trace_recs \
                                        and first_pc \
                                        not in engine._trace_tried:
                                    engine._build_trace(first_pc)
                            total = rec[1]
                            bacc[6] = -1
                            raise_exc = None
                            try:
                                j = rec[2](run_cores, mmu_p, mmu_s, dlast,
                                           dtrans, bacc, dm_width)
                            except SimulationError as exc:
                                # Address fault at block offset bacc[6]: the
                                # generated code already patched PC/retired;
                                # account for the committed prefix, then
                                # re-raise.
                                j = bacc[6]
                                if j <= 0:
                                    raise
                                raise_exc = exc
                            if j:
                                engine.block_cycles += j
                                if p_retire:
                                    for t in range(j):
                                        for pid in bits_of(run_mask):
                                            emit("core.retire", cycle + t, pid,
                                                 first_pc + t)
                                fb_seq = rec[4]
                                fb0 = None if fb_seq is None else fb_seq[0]
                                if fb0 is not None:
                                    internal = rec[5][j - 1]
                                    fbl = fb_seq[j - 1]
                        if j:
                            cycle_before = cycle
                            cycle += j
                            engine.fast_cycles += j
                            if n_run > 1:
                                sync_cycles += j
                            elif sink is not None:
                                groups[1] = groups.get(1, 0) + j
                            im_del += j * n_run
                            if fb0 is None:  # private I-banks never switch
                                im_acc += j * n_run
                                for pid in bits_of(run_mask):
                                    ilast[pid] = pid
                            else:
                                im_acc += j
                                if n_run > 1:
                                    im_bc += j
                                    im_sv += j * (n_run - 1)
                                    if sink is not None:
                                        im_width[n_run] = \
                                            im_width.get(n_run, 0) + j
                                for pid in bits_of(run_mask):
                                    last = ilast[pid]
                                    delta = internal
                                    if last is not None and last != fb0:
                                        delta += 1
                                    if delta:
                                        itrans[pid] += delta
                                    ilast[pid] = fbl
                        if rec is not None:
                            if raise_exc is not None:
                                raise raise_exc
                            if j < total:
                                # A potential bank conflict at block offset
                                # j: the generated code translated the
                                # cycle's data ports into the in-flight
                                # arrays (MMU counted), so the cycle stages
                                # them without starting its instructions.
                                handler = rec[3][j]
                                pc = run_cores[0].pc
                                for pid in bits_of(run_mask):
                                    handlers[pid] = handler
                                    fetch_pc[pid] = pc
                                engine.block_conflicts += 1
                                fresh = ()
                            else:
                                if profiling:
                                    # Successor profile: back-to-back block
                                    # entries (no per-cycle stretch in
                                    # between) are the edges a loop trace
                                    # may cross; a one-block loop's edge
                                    # leads back to its own PC.
                                    if succ_pc >= 0 \
                                            and succ_cycle == cycle_before:
                                        edges = succ.get(succ_pc)
                                        if edges is None:
                                            edges = succ[succ_pc] = {}
                                        edges[first_pc] = \
                                            edges.get(first_pc, 0) + 1
                                    succ_pc = first_pc
                                    succ_cycle = cycle
                                if rec[6]:  # HLT terminator
                                    for pid in bits_of(run_mask):
                                        core_stats[pid].halted_at = cycle
                                        fetch_pc[pid] = -1
                                    running.clear()
                                    run_mask = starting = 0
                                continue
                        elif j:
                            continue

                # ---- request: start the cores that committed last cycle ----
                # Each instruction's data addresses are translated (and
                # counted) once; its ports then stay staged in the
                # crossbars until granted.  PID order is the crossbars'
                # request order.
                d_ports = 0  # the started cores with a data port
                for pid in fresh:
                    core = cores[pid]
                    pc = core.pc
                    if pc >= program_len:
                        raise SimulationError(
                            f"core {pid} ran off the program "
                            f"at PC {pc:#x}")
                    fetch_pc[pid] = pc
                    handler = compiled[pc]
                    handlers[pid] = handler
                    preview = handler.preview
                    if preview is None:
                        dr_bank[pid] = dw_bank[pid] = -1
                        continue
                    dread, dwrite = preview(core.regs)
                    if dread is None:
                        dr_bank[pid] = -1
                    else:
                        d_ports |= 1 << pid
                        if dread >= PRIVATE_BASE:
                            mmu_p[pid] += 1
                            offset = dread - PRIVATE_BASE
                            if offset >= pwc:
                                layout.translate(pid, dread)  # raises
                            dr_bank[pid] = cbanks[pid][offset // pwb]
                            dr_off[pid] = swb + offset % pwb
                        else:
                            mmu_s[pid] += 1
                            if dread >= shared_words:
                                layout.translate(pid, dread)  # raises
                            dr_bank[pid] = dread % dbn
                            dr_off[pid] = dread // dbn
                    if dwrite is None:
                        dw_bank[pid] = -1
                    else:
                        d_ports |= 1 << pid
                        if dwrite >= PRIVATE_BASE:
                            mmu_p[pid] += 1
                            offset = dwrite - PRIVATE_BASE
                            if offset >= pwc:
                                layout.translate(pid, dwrite)  # raises
                            dw_bank[pid] = cbanks[pid][offset // pwb]
                            dw_off[pid] = swb + offset % pwb
                        else:
                            mmu_s[pid] += 1
                            if dwrite >= shared_words:
                                layout.translate(pid, dwrite)  # raises
                            dw_bank[pid] = dwrite % dbn
                            dw_off[pid] = dwrite // dbn
                # Lockstep: every running core fetches one PC (halted
                # and dead cores hold fetch PC -1; a stuck core stages
                # no fetch).
                fetching = w_if | starting
                if fetching == run_mask and run_mask & (run_mask - 1) \
                        and fetch_pc.count(
                            fetch_pc[(run_mask & -run_mask).bit_length()
                                     - 1]) == len(running):
                    sync_cycles += 1
                elif sink is not None:
                    # Sync group (the lockstep cycles fold into size 1
                    # when the run ends): a running core counts at its
                    # latched fetch PC (-1 marks the others), except a
                    # stuck one at an instruction boundary, at its PC.
                    free = run_mask & ~(fetching | w_dr | w_dw | stuck_mid)
                    if free:
                        pcs = {cores[pid].pc if free >> pid & 1
                               else fetch_pc[pid]
                               for pid in bits_of(run_mask)}
                    else:
                        pcs = set(fetch_pc)
                        pcs.discard(-1)
                    size = len(pcs)
                    groups[size] = groups.get(size, 0) + 1

                # ---- the conflict-free proof of the started cycle ----
                proven = False
                if proving and fresh:
                    n_run = len(running)
                    # Instruction side: private banks never conflict.  In
                    # a shared IM a PC has one bank and offset, so the
                    # distinct PCs need distinct banks, and a PC that
                    # several cores fetch needs the broadcast bus.
                    proven = im_private
                    if not im_private:
                        pcs = dict.fromkeys(fetch_pc)
                        pcs.pop(-1, None)
                        seen = 0
                        for pc in pcs:
                            bit = 1 << pc_bank[pc]
                            if seen & bit:
                                break
                            seen |= bit
                        else:
                            proven = i_broadcast or len(pcs) == n_run
                    if proven:
                        # Data side: a bank serves one access, or one
                        # same-offset read group when its crossbar
                        # broadcasts (a write maps to offset -1).
                        dm_map = {}
                        ports = 0
                        for pid in bits_of(d_ports):
                            bank = dr_bank[pid]
                            if bank >= 0:
                                ports += 1
                                entry = dm_map.get(bank)
                                if entry is None:
                                    dm_map[bank] = [dr_off[pid], 1]
                                elif entry[0] != dr_off[pid] \
                                        or not d_broadcast:
                                    proven = False
                                    break
                                else:
                                    entry[1] += 1
                            bank = dw_bank[pid]
                            if bank >= 0:
                                ports += 1
                                if bank in dm_map:
                                    proven = False
                                    break
                                dm_map[bank] = [-1, 0]
                if proven:
                    # Count what resolve() would have: every bank serves
                    # its group at once.
                    engine.fast_cycles += 1
                    im_del += n_run
                    if im_private:  # every core its own bank
                        im_acc += n_run
                        for pid in fresh:
                            ilast[pid] = pid
                    else:
                        im_acc += len(pcs)
                        if len(pcs) < n_run:
                            for pc in pcs:
                                count = fetch_pc.count(pc)
                                if count > 1:
                                    im_bc += 1
                                    im_sv += count - 1
                                    if sink is not None:
                                        im_width[count] = \
                                            im_width.get(count, 0) + 1
                        for pid in fresh:
                            bank = pc_bank[fetch_pc[pid]]
                            last = ilast[pid]
                            if last is not None and last != bank:
                                itrans[pid] += 1
                            ilast[pid] = bank
                    if d_ports:
                        bacc[0] += len(dm_map)
                        bacc[1] += ports
                        if ports > len(dm_map):  # merged reads
                            for bank, (__, count) in dm_map.items():
                                if count > 1:
                                    bacc[2] += 1
                                    bacc[3] += count - 1
                                    if sink is not None:
                                        dm_width[count] = \
                                            dm_width.get(count, 0) + 1
                        for pid in bits_of(d_ports):
                            last = dlast[pid]
                            for bank in dr_bank[pid], dw_bank[pid]:
                                if bank >= 0:
                                    if last is not None and last != bank:
                                        dtrans[pid] += 1
                                    last = bank
                            dlast[pid] = last
                elif proving:
                    # Rejected, or a block's conflict exit: the stretch
                    # ends and the crossbars resolve the cycle.
                    engine.fallbacks += 1
                    if p_exit:
                        emit("ff.exit", cycle, cycle - stretch)
                    stretch = -1

                cycle += 1
                if proven:
                    done = run_mask
                    starting = 0
                else:
                    # ---- stage the started cores' ports ----
                    # (Crossbar.stage, inlined)
                    if staged:
                        i_new = d_new = 0
                        for pid in staged:
                            bit = 1 << pid
                            bank, i_read_at[pid] = fetch_loc[pid][fetch_pc[pid]]
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
                    # ---- arbitrate ----
                    granted = i_resolve()[0]
                    w_if ^= granted
                    if dxbar.active:
                        d_reads, d_writes = d_resolve()
                        w_dr ^= d_reads
                        w_dw ^= d_writes
                        granted |= d_reads | d_writes
                    waiting = w_if | w_dr | w_dw
                    done = granted & ~waiting
                    if sink is not None:
                        seen = ix_stats.conflict_events \
                            + dx_stats.conflict_events
                        if seen != conflicts:
                            conflicts = seen
                            if burst and burst_end == cycle - 1:
                                burst += 1
                            else:
                                if burst:
                                    bursts[burst] = bursts.get(burst, 0) + 1
                                burst = 1
                            burst_end = cycle
                if done:
                    last_progress = cycle
                # ---- commit the fully granted cores, in PID order ----
                # (data reads happen at commit).  A per-event stall
                # subscriber walks the other running cores too, in the
                # same order.
                for pid in bits_of(run_mask if p_stall else done):
                    bit = 1 << pid
                    if not done & bit:
                        # Stalled on its in-flight instruction, or (stuck
                        # at a boundary) on the one at its PC.
                        emit("core.stall", cycle - 1, pid,
                             fetch_pc[pid] if (waiting | stuck_mid) & bit
                             else cores[pid].pc)
                        continue
                    if p_retire:
                        emit("core.retire", cycle - 1, pid, fetch_pc[pid])
                    core = cores[pid]
                    bank = dr_bank[pid]
                    if bank >= 0:
                        value = dm_store[bank][dr_off[pid]]
                        dreads += 1
                    else:
                        value = None
                    word = handlers[pid].commit(core, value)
                    if word is not None:
                        dm_store[dw_bank[pid]][dw_off[pid]] = word
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
        finally:
            if stretch >= 0 and p_exit:
                emit("ff.exit", cycle, cycle - stretch)
            self._flush((im_acc, im_del, im_bc, im_sv), bacc, itrans,
                        dtrans, mmu_p, mmu_s, dreads, dwrites)
            if sink is not None:
                ixbar.widths = dxbar.widths = None
                if sync_cycles:  # multi-core lockstep, on every path
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

    def _flush(self, im, bacc, itrans, dtrans, mmu_p, mmu_s, reads,
               writes) -> None:
        """Add the run loop's accumulators to the crossbars, MMUs and
        system counters, and zero the lists among them: ``im`` and
        ``bacc[0:4]`` are the I-Xbar's and D-Xbar's (accesses,
        deliveries, broadcasts, savings) in the cycles no crossbar
        resolved, ``bacc[4:6]`` data reads and writes."""
        for xbar, counts, trans in ((self.ixbar, im, itrans),
                                    (self.dxbar, bacc, dtrans)):
            stats = xbar.stats
            stats.bank_accesses += counts[0]
            stats.deliveries += counts[1]
            stats.broadcasts += counts[2]
            stats.broadcast_savings += counts[3]
            transitions = stats.bank_transitions
            for pid, count in enumerate(trans):
                if count:
                    transitions[pid] = transitions.get(pid, 0) + count
                    trans[pid] = 0
        for pid, mmu in enumerate(self.mmus):
            mmu.private_accesses += mmu_p[pid]
            mmu.shared_accesses += mmu_s[pid]
            mmu_p[pid] = mmu_s[pid] = 0
        self._dreads_committed += reads + bacc[4]
        self._dwrites_committed += writes + bacc[5]
        bacc[:6] = (0, 0, 0, 0, 0, 0)

    def _emit_window(self, bus, cycle, final, sync_cycles,
                     core_stats) -> None:
        """Emit ``telemetry.window`` with cumulative counter snapshots
        (the run loop flushes its accumulators first)."""
        self._settle_stalls(core_stats, cycle)
        ix, dx = self.ixbar.stats, self.dxbar.stats
        mmus = self.mmus
        bus.emit("telemetry.window", cycle, final,
                 tuple(core.retired for core in self.cores),
                 tuple(cs.stall_cycles for cs in core_stats),
                 (ix.conflict_events, dx.conflict_events,
                  ix.broadcasts, dx.broadcasts,
                  ix.broadcast_savings, dx.broadcast_savings,
                  sum(m.private_accesses for m in mmus),
                  sum(m.shared_accesses for m in mmus),
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
