"""Conflict-free fast-forward engine for the platform simulator.

The cycle-stepped loop in :mod:`repro.platform.multicore` pays full
request/arbitrate/commit machinery every cycle, yet on the evaluated
workloads the overwhelming majority of cycles are *conflict-free*: every
request is granted immediately (mc-ref fetches from private banks;
ulpmc-int/-bank fetch in lockstep and broadcast; the MMU keeps private
data in per-core banks).  In a conflict-free cycle the crossbars make no
decisions — arbiters are not consulted, nobody stalls — so the cycle's
entire effect on architectural state and statistics can be computed
directly.

:class:`FastForwardEngine` exploits that: while every running core sits
at an instruction boundary it previews all memory requests of the next
cycle, *proves* the cycle conflict-free, and commits every core through
the decode-cached dispatch table of :mod:`repro.tamarisc.dispatch`.  The
moment a cycle *could* conflict (two non-mergeable requests meet in one
bank, or a lockstep broadcast is not available) the engine hands the
fully-prepared cycle back to the exact cycle-stepped loop, which replays
it through the real crossbars and round-robin arbiters.

Exactness contract (enforced by ``tests/platform``):

* Architectural state — registers, flags, PCs, data memory — is
  bit-identical to the reference loop after every cycle.
* Every :class:`~repro.platform.stats.SimulationStats` field is
  reconstructed exactly: cycles, per-core retired/stall/halted_at,
  bank accesses, deliveries, broadcasts and savings, conflict events
  (always zero in fast cycles, by construction), per-master bank
  transitions, MMU access mixes and sync cycles.
* Arbiter pointers are untouched: the reference loop only advances them
  on conflicts, which the fast path never commits.
* Error behaviour matches cycle-for-cycle, including the exact messages
  for running off the program, address-range violations and
  ``max_cycles`` exhaustion.

The engine batches its statistics in local counters and flushes them
into the shared crossbar/MMU/system objects when it returns (also on
exceptions), so a simulation may interleave fast and exact stretches
freely.
"""

from __future__ import annotations

import weakref
from operator import attrgetter

from repro.errors import CycleLimitError, SimulationError
from repro.memory.layout import IMOrganization, PRIVATE_BASE
from repro.tamarisc import blocks as tblocks

#: Sentinel distinguishing "no cached verdict" from "block unusable".
_UNSET = object()

#: A core's PC (the metrics sink's sync groups count distinct ones).
_pc_of = attrgetter("pc")

#: Test-only switches for the engine's two translation tiers, read once
#: per engine (when ``MultiCoreSystem.load`` builds it).
#: ``TRANSLATION_BLOCKS = False`` gives the per-instruction-only engine,
#: ``LOOP_TRACES = False`` the trace-free one; the differential suites
#: and the speed/overhead benchmarks patch them to compare tiers.
TRANSLATION_BLOCKS = True
LOOP_TRACES = True

#: Block entries at one PC before the engine attempts to grow a loop
#: trace from there (also the retry cadence while profile data is still
#: too thin).  Tests lower it to exercise the trace layer on tiny runs.
TRACE_ENTRY_THRESHOLD = 64

#: Minimum observations of a successor edge before a trace may cross
#: it.  Loops that flaky would thrash (build, bail, rebuild).
TRACE_MIN_EDGE = 24

#: Anchor coverage: the (up to two) arms leaving the anchor must carry
#: at least 15/16 of its observed exits.
TRACE_SPLIT_NUM, TRACE_SPLIT_DEN = 15, 16

#: Chain dominance: inside an arm each block's followed successor must
#: carry at least 7/8 of that block's observed exits (loop exits taken
#: roughly every dozen iterations still leave a large win; the bailed
#: iteration is rolled back and replayed exactly).
TRACE_CHAIN_NUM, TRACE_CHAIN_DEN = 7, 8


class FastForwardEngine:
    """Batch-commits provably conflict-free cycles for one system."""

    def __init__(self, system, compiled, decoded=None, img_hash=None):
        # Weak: the system owns its engine.  A strong back-reference
        # makes every system a reference cycle that only the cyclic
        # collector frees; the run loops allocate little, so it seldom
        # runs, and finished systems (each holding its memory images)
        # pile up — peak RSS then grows with the number of runs.
        self._system = weakref.ref(system)
        config = system.config
        n = config.n_cores
        self.n = n
        self.compiled = compiled
        self.im_private = config.im_org == IMOrganization.PRIVATE
        self.im_interleaved = config.im_org == IMOrganization.INTERLEAVED
        self.im_banks = config.im_banks
        self.im_bank_words = config.im_bank_words
        self.instr_broadcast = config.instr_broadcast
        self.data_broadcast = config.data_broadcast
        dm = system.dm_layout
        self.dm_banks_n = dm.banks
        self.dm_layout = dm
        self.shared_words = dm.shared_words
        self.swb = dm.shared_words_per_bank
        self.pwb = dm.private_words_per_bank
        self.pwc = dm.private_words_per_core
        self.core_banks = [dm.core_banks(i) for i in range(n)]
        # Per-core arrays, reused every cycle.  All but ``_im_bank`` are
        # the system's in-flight instruction state: the engine only
        # writes them while every core sits at an instruction boundary,
        # and a conflict fallback leaves the prepared cycle in them for
        # the cycle loop (which then only stages the ports).
        self._handlers = system._handlers
        self._dr_bank = system._dr_bank
        self._dr_off = system._dr_off
        self._dw_bank = system._dw_bank
        self._dw_off = system._dw_off
        self._im_bank = [0] * n
        # Diagnostics (not part of SimulationStats).
        self.fast_cycles = 0
        self.fallbacks = 0
        # ---- translation-block layer (see repro.tamarisc.blocks) ----
        self._blocks = TRANSLATION_BLOCKS \
            and decoded is not None and img_hash is not None
        self._decoded = decoded
        self._img_hash = img_hash
        # Blocks batch whole lockstep stretches, so they are only legal
        # when the per-cycle proof would accept every lockstep fetch:
        # private I-banks or an instruction broadcast bus.  Without
        # either, single-core stretches still qualify.
        self._blocks_static = self._blocks \
            and (self.im_private or self.instr_broadcast)
        self._block_env = (self.pwc, self.pwb, self.swb, self.shared_words,
                           self.dm_banks_n, self.data_broadcast)
        self._block_recs: dict[int, object] = {}
        # Position-indexed scratch for the generated memory phases.
        self._brb = [0] * n
        self._bro = [0] * n
        self._bwb = [0] * n
        self._bwo = [0] * n
        # Block diagnostics (manifest/metrics surface).
        self.block_entries = 0
        self.blocks_compiled = 0
        self.block_cycles = 0
        self.block_conflicts = 0
        # ---- loop-trace layer (cycles in the block graph) ----
        # Traces run whenever no per-event subscriber is attached (those
        # keep the per-cycle-shaped event synthesis of the block/cycle
        # paths; telemetry windows only cap trace budgets at window
        # edges).  Their state lives here so profile data survives
        # stretches.
        self._traces = LOOP_TRACES
        self._trace_recs: dict[int, list] = {}
        self._trace_tried: set[int] = set()
        self._succ: dict[int, dict[int, int]] = {}
        self._pc_entries: dict[int, int] = {}
        self.trace_entries = 0
        self.traces_built = 0
        self.trace_cycles = 0

    def _block_record(self, pc):
        """Build (and cache) the execution record for the block at ``pc``.

        Returns ``None`` when the block cannot be fused (first
        instruction unsupported); the advance loop then keeps using the
        per-cycle path for that PC.
        """
        # Count per-engine installations, not global-cache misses: the
        # process-wide block cache outlives the run, so a freshness-based
        # count depends on what ran earlier in the process and diverges
        # between back-to-back runs (the bench identity gate diffs their
        # metric registries bit-for-bit).  Both callers guard on
        # ``_block_recs``, so this fires once per unique PC per engine.
        block, _ = tblocks.get_block(pc, self._img_hash, self._decoded)
        self.blocks_compiled += 1
        if block.total == 0:
            self._block_recs[pc] = None
            return None
        run_fast, run_obs = block.build(
            self._block_env, self.dm_layout, self.core_banks,
            [bank.storage for bank in self._system().dmem.banks],
            self._brb, self._bro, self._bwb, self._bwo,
            self._dr_bank, self._dr_off, self._dw_bank, self._dw_off)
        if self.im_private:
            fb_seq = None
            fb_cum = None
        else:
            if self.im_interleaved:
                fb_seq = tuple((pc + t) % self.im_banks
                               for t in range(block.total))
            else:
                fb_seq = tuple((pc + t) // self.im_bank_words
                               for t in range(block.total))
            # fb_cum[j]: bank transitions *inside* the first j+1 fetches.
            fb_cum = [0] * block.total
            for t in range(1, block.total):
                fb_cum[t] = fb_cum[t - 1] + (fb_seq[t] != fb_seq[t - 1])
        record = (block, block.total, run_fast, run_obs, block.handlers,
                  fb_seq, fb_cum, block.terminator == "hlt")
        self._block_recs[pc] = record
        return record

    def _block_for_trace(self, pc):
        """The block record at ``pc`` (building it if needed), or None."""
        rec = self._block_recs.get(pc, _UNSET)
        if rec is _UNSET:
            rec = self._block_record(pc)
        return rec

    def _walk_arm(self, start, first, total):
        """Follow the dominant-successor chain from ``first`` back to
        ``start``.  Returns the ``[(block, expected_taken), ...]`` chain,
        ``None`` for "profile still too thin, retry later", or ``False``
        for a structural dead end (never retry)."""
        chain = []
        pc = first
        seen = {start}
        while pc != start:
            if pc in seen or len(chain) >= tblocks.MAX_TRACE_BLOCKS:
                return False
            seen.add(pc)
            rec = self._block_for_trace(pc)
            if rec is None or rec[0].terminator != "br":
                return False
            block = rec[0]
            edges = self._succ.get(pc)
            if not edges:
                return None
            nxt = max(edges, key=edges.get)
            count = edges[nxt]
            if count < TRACE_MIN_EDGE or count * TRACE_CHAIN_DEN \
                    < sum(edges.values()) * TRACE_CHAIN_NUM:
                return None
            instr = block.instrs[-1]
            branch_pc = (block.start + block.n_body) & 0x7FFF
            taken, fallthrough = tblocks._branch_targets(instr, branch_pc)
            if nxt == taken:
                expected = True
            elif nxt == fallthrough:
                expected = False
            else:
                return False
            chain.append((block, expected))
            total += block.total
            if total > tblocks.MAX_TRACE_INSTRS:
                return False
            pc = nxt
        return chain

    def _build_trace(self, start):
        """Grow, compile and register a loop trace anchored at ``start``.

        The anchor's hot successor edges (one or both branch directions)
        each grow a dominant-successor chain back to ``start``; the
        resulting shape goes to :func:`repro.tamarisc.blocks.build_trace`.
        *Structural* failures (non-branch terminators, unfusable paths,
        chains that leave the loop) are remembered in ``_trace_tried``
        so the attempt is never repeated; thin profile data just waits
        for more entries.
        """
        rec = self._block_for_trace(start)
        if rec is None or rec[0].terminator != "br":
            self._trace_tried.add(start)
            return None
        anchor = rec[0]
        edges = self._succ.get(start)
        if not edges:
            return None
        hot = [(pc, count) for pc, count in edges.items()
               if count >= TRACE_MIN_EDGE]
        hot.sort(key=lambda item: -item[1])
        hot = hot[:2]
        if not hot or sum(count for __, count in hot) * TRACE_SPLIT_DEN \
                < sum(edges.values()) * TRACE_SPLIT_NUM:
            return None
        instr = anchor.instrs[-1]
        branch_pc = (anchor.start + anchor.n_body) & 0x7FFF
        taken, fallthrough = tblocks._branch_targets(instr, branch_pc)
        arms_spec = []
        for nxt, __ in hot:
            if nxt == taken:
                expected = True
            elif nxt == fallthrough:
                expected = False
            else:
                self._trace_tried.add(start)
                return None
            chain = self._walk_arm(start, nxt, anchor.total)
            if chain is None:
                return None
            if chain is False:
                self._trace_tried.add(start)
                return None
            arms_spec.append((expected, chain))
        # Sample the lockstep cores at the anchor: registers and flags
        # that already differ across cores seed the trace's uniform
        # partition (build_trace treats everything they taint as
        # per-core).  The trace re-checks uniformity at every entry, so
        # a lucky sample only costs a decline, never correctness.
        system = self._system()
        cores = [core for core in system.cores
                 if not core.halted and core.pc == start]
        percore_regs = frozenset()
        percore_flags = frozenset()
        if len(cores) > 1:
            base = cores[0]
            percore_regs = frozenset(
                index for index in range(len(base.regs))
                if any(core.regs[index] != base.regs[index]
                       for core in cores[1:]))
            percore_flags = frozenset(
                bit for bit in "czvn"
                if any(getattr(core.flags, bit)
                       != getattr(base.flags, bit)
                       for core in cores[1:]))
        trace = tblocks.build_trace(anchor, arms_spec, percore_regs,
                                    percore_flags)
        run = None if trace is None else trace.build(
            self._block_env, self.dm_layout, self.core_banks,
            [bank.storage for bank in system.dmem.banks])
        if run is None:  # rejected shape, or no uniform plan
            self._trace_tried.add(start)
            return None
        if self.im_private:
            fb0 = None
            arm_consts = None
        else:
            arm_consts = []
            fb0 = None
            for index in range(len(trace.arms)):
                pcs = trace.arm_pcs(index)
                if self.im_interleaved:
                    fb_seq = [p % self.im_banks for p in pcs]
                else:
                    fb_seq = [p // self.im_bank_words for p in pcs]
                if fb0 is None:
                    fb0 = fb_seq[0]
                internal = sum(fb_seq[t] != fb_seq[t - 1]
                               for t in range(1, len(fb_seq)))
                arm_consts.append(
                    (internal, int(fb_seq[-1] != fb0), fb_seq[-1]))
            if len(arm_consts) == 1:
                arm_consts.append((0, 0, 0))
            arm_consts = tuple(arm_consts)
        # rec = [run, max_period, fb0, ((internal, wrap, last_bank) per
        #        arm) | None, entries, declines]
        record = [run, trace.max_period, fb0, arm_consts, 0, 0]
        self._trace_recs[start] = record
        self.traces_built += 1
        return record

    def block_summary(self):
        """Diagnostics dict for run manifests and benchmark records."""
        entries = self.block_entries
        fast = self.fast_cycles
        return {
            "enabled": self._blocks,
            "entries": entries,
            "compiled": self.blocks_compiled,
            "hit_rate": (entries - self.blocks_compiled) / entries
            if entries else 0.0,
            "block_cycles": self.block_cycles,
            "conflicts": self.block_conflicts,
            "lockstep_fraction": self.block_cycles / fast if fast else 0.0,
            "traces": self.traces_built,
            "trace_entries": self.trace_entries,
            "trace_cycles": self.trace_cycles,
        }

    def advance(self, running, core_stats, cycle, sync_cycles,
                max_cycles, barrier=None):
        """Commit conflict-free cycles until a potential conflict or halt.

        Preconditions: every core in ``running`` sits at an instruction
        boundary (no latched partial grants).  On a potential conflict
        the cycle is *not* consumed: every running core's handler and
        translated data ports are left in the system's in-flight arrays
        (MMU accounting applied, exactly as the loop's own instruction
        start would) and the caller's cycle loop replays the cycle
        through the crossbars.  Returns the updated ``(cycle,
        sync_cycles, handed_back)``; ``handed_back`` says the next
        cycle is prepared that way.  Otherwise every core is at an
        instruction boundary.

        ``barrier`` (when not None) is a cycle the engine must not
        commit past: the call returns exactly at ``cycle >= barrier``
        with every core at an instruction boundary, so the caller can
        mutate architectural state (fault injection) and re-enter.
        """
        system = self._system()
        cores = system.cores
        compiled = self.compiled
        program_len = len(compiled)
        dbanks = system.dmem.banks
        layout = self.dm_layout
        cbanks = self.core_banks
        n = self.n
        im_private = self.im_private
        im_interleaved = self.im_interleaved
        im_banks = self.im_banks
        im_bank_words = self.im_bank_words
        instr_broadcast = self.instr_broadcast
        data_broadcast = self.data_broadcast
        shared_words = self.shared_words
        dbn = self.dm_banks_n
        swb = self.swb
        pwb = self.pwb
        pwc = self.pwc

        handlers = self._handlers
        dr_bank = self._dr_bank
        dr_off = self._dr_off
        dw_bank = self._dw_bank
        dw_off = self._dw_off
        im_bank = self._im_bank

        # Observability: per-cycle events are synthesised here so a
        # probed run sees the identical event stream in either execution
        # mode (the trace/metric differential tests enforce this).  All
        # flags are hoisted once per stretch; runs without a per-event
        # subscriber pay only these local-boolean checks.  A metrics
        # sink (ProbeBus.metrics) gets blocks and traces as constants
        # and every other cycle's broadcasts and sync group one entry
        # each, except the multi-core lockstep ones: the cycle loop
        # adds the run's sync_cycles to size 1 when it returns.
        bus = system.probes
        observing = bus is not None and bus.observed
        p_retire = observing and bus.wants("core.retire")
        p_mmu = observing and bus.wants("mmu.translate")
        p_im_bc = observing and bus.wants("im.broadcast")
        p_dm_bc = observing and bus.wants("dm.broadcast")
        p_ff = observing and bus.wants("ff.exit")
        emit = bus.emit if observing else None
        if observing and bus.wants("ff.enter"):
            bus.emit("ff.enter", cycle)
        sink = bus.metrics if bus is not None else None
        groups = im_width = dm_width = None
        if sink is not None:
            groups, _, im_width, dm_width = sink
        entered_at = cycle

        # Local stat accumulators, flushed on every exit path.
        im_acc = im_del = im_bc = im_sv = 0
        dm_acc = dm_del = dm_bc = dm_sv = 0
        dreads = dwrites = 0
        itrans = [0] * n
        dtrans = [0] * n
        ilast = list(system.ixbar._last_bank)
        dlast = list(system.dxbar._last_bank)
        mmu_t = [0] * n
        mmu_p = [0] * n
        mmu_s = [0] * n

        # Translation-block layer locals.
        blocks_any = self._blocks
        blocks_static = self._blocks_static
        block_recs = self._block_recs
        # Loop-trace locals.  Profiling (successor edges, per-PC entry
        # counts) and trace execution run whenever no per-event
        # subscriber is attached: those must keep receiving the
        # per-cycle event stream.
        profiling = blocks_any and self._traces and not observing
        trace_recs = self._trace_recs
        succ = self._succ
        pc_entries = self._pc_entries
        succ_pc = -1
        succ_cycle = -1
        # After a successful trace run the PC is back at the anchor but
        # the *next* iteration is exactly the one that bailed, so an
        # immediate re-entry would be a guaranteed decline.  Skip one
        # attempt; any other block entry re-arms the trace.
        trace_skip = -1
        # Slots 0-5 are batched DM stats, 6 the fault-offset channel,
        # 7 the conflict-offset channel (offset *within* the block; the
        # return value alone cannot flag conflicts once self-looping
        # blocks commit several iterations per call), 8-10 the trace
        # layer's per-call arm report (iterations per arm, last
        # committed arm) for fetch-transition accounting.
        bacc = [0, 0, 0, 0, 0, 0, -1, -1, 0, 0, 0]

        run_list = sorted(running)
        run_cores = [cores[pid] for pid in run_list]
        limit = max_cycles if barrier is None \
            else (barrier if barrier < max_cycles else max_cycles)
        # Telemetry windowing: every commit path that reaches ``edge``,
        # the next multiple of ``win``, emits the boundary snapshot.
        # Block and trace budgets are capped at it (``cap``), so an edge
        # is always hit exactly, never jumped over.
        win = bus.window_cycles if bus is not None else 0
        edge = -1
        cap = limit
        if win and bus.wants("telemetry.window"):
            edge = cycle - cycle % win + win
            if edge < cap:
                cap = edge
        try:
            while run_list:
                if barrier is not None and cycle >= barrier:
                    return cycle, sync_cycles, False
                if cycle >= max_cycles:
                    raise CycleLimitError(
                        f"benchmark {system.benchmark.name!r} did not "
                        f"finish within {max_cycles} cycles on "
                        f"{system.config.name}")

                n_run = len(run_list)

                # ---- translation-block fast path ----
                # When every running core sits at the same PC (or one
                # core runs free) the whole straight-line block starting
                # there commits in a single specialised call.  Within
                # the block every cycle is a lockstep fetch by
                # construction; divergence can only happen at the
                # terminator, after which this check simply fails and
                # the per-cycle machinery takes over.
                if blocks_static or (blocks_any and n_run == 1):
                    first_pc = run_cores[0].pc
                    entering = first_pc < program_len
                    if entering and n_run > 1:
                        for core in run_cores:
                            if core.pc != first_pc:
                                entering = False
                                break
                    # ---- loop-trace fast path ----
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
                    if profiling and entering \
                            and first_pc != trace_skip:
                        trace_skip = -1
                        trec = trace_recs.get(first_pc)
                        if trec is not None \
                                and cycle + trec[1] <= cap:
                            self.trace_entries += 1
                            trec[4] += 1
                            if sink is not None:
                                dm_before = bacc[2]
                            j = trec[0](run_cores, mmu_t, mmu_p, mmu_s,
                                        dlast, dtrans, bacc,
                                        cap - cycle)
                            if j:
                                cycle += j
                                self.fast_cycles += j
                                self.trace_cycles += j
                                if n_run > 1:
                                    sync_cycles += j
                                    # Every shared read of the trace
                                    # is one n_run-wide DM broadcast.
                                    if sink is not None \
                                            and bacc[2] != dm_before:
                                        dm_width[n_run] = \
                                            dm_width.get(n_run, 0) \
                                            + bacc[2] - dm_before
                                elif sink is not None:
                                    groups[1] = groups.get(1, 0) + j
                                im_del += j * n_run
                                if trec[2] is None:  # private I-banks
                                    im_acc += j * n_run
                                    for pid in run_list:
                                        last = ilast[pid]
                                        if last is not None \
                                                and last != pid:
                                            itrans[pid] += 1
                                        ilast[pid] = pid
                                else:
                                    im_acc += j
                                    if n_run > 1:
                                        im_bc += j
                                        im_sv += j * (n_run - 1)
                                        if sink is not None:
                                            im_width[n_run] = \
                                                im_width.get(n_run, 0) + j
                                    # Per-arm iteration counts (and
                                    # the last arm run) reported by
                                    # the generated code; fetch-bank
                                    # transitions fold from per-arm
                                    # constants.  The wrap between
                                    # consecutive iterations counts on
                                    # the *earlier* iteration's arm,
                                    # and the final iteration has no
                                    # following wrap.
                                    it_a = bacc[8]
                                    it_b = bacc[9]
                                    arm_a, arm_b = trec[3]
                                    delta_base = \
                                        arm_a[0] * it_a \
                                        + arm_b[0] * it_b \
                                        + arm_a[1] * it_a \
                                        + arm_b[1] * it_b
                                    if bacc[10]:
                                        delta_base -= arm_a[1]
                                        fbl = arm_a[2]
                                    else:
                                        delta_base -= arm_b[1]
                                        fbl = arm_b[2]
                                    fb0 = trec[2]
                                    for pid in run_list:
                                        last = ilast[pid]
                                        delta = delta_base
                                        if last is not None \
                                                and last != fb0:
                                            delta += 1
                                        if delta:
                                            itrans[pid] += delta
                                        ilast[pid] = fbl
                                if cycle == edge:
                                    system._emit_window(
                                        bus, cycle, False, sync_cycles,
                                        core_stats, im_bc, im_sv,
                                        dm_bc + bacc[2], dm_sv + bacc[3],
                                        mmu_p, mmu_s)
                                    edge += win
                                    cap = edge if edge < limit else limit
                                succ_pc = -1
                                trace_skip = first_pc
                                continue
                            trec[5] += 1
                            if trec[5] * 4 > trec[4] + 8:
                                # Thrashing trace: the loop no longer
                                # behaves as profiled.  Drop it and
                                # block rebuilds at this anchor.
                                del trace_recs[first_pc]
                                self._trace_tried.add(first_pc)
                    if entering:
                        rec = block_recs.get(first_pc, _UNSET)
                        if rec is _UNSET:
                            rec = self._block_record(first_pc)
                        if rec is not None and cycle + rec[1] <= cap:
                            # rec = (block, total, run_fast, run_obs,
                            #        handlers, fb_seq, fb_cum, halts)
                            self.block_entries += 1
                            if profiling:
                                count = pc_entries.get(first_pc, 0) + 1
                                pc_entries[first_pc] = count
                                if count % TRACE_ENTRY_THRESHOLD == 0 \
                                        and first_pc not in trace_recs \
                                        and first_pc not in \
                                        self._trace_tried:
                                    self._build_trace(first_pc)
                            total = rec[1]
                            bacc[6] = -1
                            bacc[7] = -1
                            raise_exc = None
                            try:
                                if observing:
                                    j = rec[3](run_cores, mmu_t, mmu_p,
                                               mmu_s, dlast, dtrans,
                                               bacc, cycle, emit, p_mmu,
                                               p_dm_bc, dm_width)
                                else:
                                    j = rec[2](run_cores, mmu_t, mmu_p,
                                               mmu_s, dlast, dtrans,
                                               bacc, cap - cycle,
                                               dm_width)
                            except SimulationError as exc:
                                # Address fault at block offset
                                # bacc[6]: the generated code already
                                # patched PC/retired; account for the
                                # committed prefix, then re-raise.
                                j = bacc[6]
                                if j <= 0:
                                    raise
                                raise_exc = exc
                            if j:
                                cycle_before = cycle
                                cycle += j
                                self.fast_cycles += j
                                self.block_cycles += j
                                if n_run > 1:
                                    sync_cycles += j
                                elif sink is not None:
                                    groups[1] = groups.get(1, 0) + j
                                if p_retire:
                                    for t in range(j):
                                        cy = cycle_before + t
                                        pc_t = first_pc + t
                                        for pid in run_list:
                                            bus.emit("core.retire", cy,
                                                     pid, pc_t)
                                im_del += j * n_run
                                fb_seq = rec[5]
                                if fb_seq is None:  # private I-banks
                                    im_acc += j * n_run
                                    for pid in run_list:
                                        last = ilast[pid]
                                        if last is not None \
                                                and last != pid:
                                            itrans[pid] += 1
                                        ilast[pid] = pid
                                else:
                                    im_acc += j
                                    if n_run > 1:
                                        im_bc += j
                                        im_sv += j * (n_run - 1)
                                        if sink is not None:
                                            im_width[n_run] = \
                                                im_width.get(n_run, 0) + j
                                        if p_im_bc:
                                            for t in range(j):
                                                bus.emit(
                                                    "im.broadcast",
                                                    cycle_before + t,
                                                    fb_seq[t], n_run)
                                    if j <= total:
                                        internal = rec[6][j - 1]
                                        fbj = fb_seq[j - 1]
                                    else:
                                        # Self-looping block: q full
                                        # iterations plus an r-cycle
                                        # prefix; fetch banks repeat
                                        # fb_seq cyclically, with one
                                        # extra transition per wrap iff
                                        # last and first banks differ.
                                        q, r = divmod(j, total)
                                        starts = q + (1 if r else 0)
                                        internal = q * rec[6][total - 1] \
                                            + (rec[6][r - 1] if r else 0) \
                                            + (starts - 1) \
                                            * (fb_seq[total - 1]
                                               != fb_seq[0])
                                        fbj = fb_seq[(j - 1) % total]
                                    fb0 = fb_seq[0]
                                    for pid in run_list:
                                        last = ilast[pid]
                                        delta = internal
                                        if last is not None \
                                                and last != fb0:
                                            delta += 1
                                        if delta:
                                            itrans[pid] += delta
                                        ilast[pid] = fbj
                            if raise_exc is not None:
                                raise raise_exc
                            if cycle == edge:
                                # Emit before any conflict return hands
                                # control back to the exact loop.
                                system._emit_window(
                                    bus, cycle, False, sync_cycles,
                                    core_stats, im_bc, im_sv,
                                    dm_bc + bacc[2], dm_sv + bacc[3],
                                    mmu_p, mmu_s)
                                edge += win
                                cap = edge if edge < limit else limit
                            conflict_at = bacc[7]
                            if conflict_at >= 0:
                                # Potential bank conflict at that block
                                # offset: the generated code filled the
                                # pid-indexed data ports; hand the cycle
                                # back like the per-cycle fallback below.
                                handler = rec[4][conflict_at]
                                for pid in run_list:
                                    handlers[pid] = handler
                                self.fallbacks += 1
                                self.block_conflicts += 1
                                return cycle, sync_cycles, True
                            if profiling and j:
                                # Successor profile: back-to-back block
                                # entries (no per-cycle stretch in
                                # between) are the edges a loop trace
                                # may cross.  Conflicts and faults
                                # returned/raised above, so j is a
                                # whole number of block executions
                                # ending at the terminator here.
                                if succ_pc >= 0 \
                                        and succ_cycle == cycle_before:
                                    edges = succ.get(succ_pc)
                                    if edges is None:
                                        edges = succ[succ_pc] = {}
                                    edges[first_pc] = \
                                        edges.get(first_pc, 0) + 1
                                succ_pc = first_pc
                                succ_cycle = cycle
                            if rec[7]:  # HLT terminator
                                for pid in run_list:
                                    core_stats[pid].halted_at = cycle
                                    running.discard(pid)
                                run_list = []
                                run_cores = []
                            continue

                # ---- preview: addresses, translation, conflict proof ----
                conflict = False
                n_run = len(run_list)
                dm_map = {}
                dm_count = 0
                first_pc = cores[run_list[0]].pc
                lockstep = True
                for pid in run_list:
                    core = cores[pid]
                    pc = core.pc
                    if pc >= program_len:
                        raise SimulationError(
                            f"core {core.pid} ran off the program "
                            f"at PC {pc:#x}")
                    if pc != first_pc:
                        lockstep = False
                    handler = compiled[pc]
                    handlers[pid] = handler
                    preview = handler.preview
                    if preview is None:
                        dr_bank[pid] = -1
                        dw_bank[pid] = -1
                        continue
                    ra, wa = preview(core.regs)
                    if ra is not None:
                        mmu_t[pid] += 1
                        if ra >= PRIVATE_BASE:
                            mmu_p[pid] += 1
                            off = ra - PRIVATE_BASE
                            if off >= pwc:
                                layout.translate(pid, ra)  # exact raise
                            rb = cbanks[pid][off // pwb]
                            ro = swb + off % pwb
                        else:
                            mmu_s[pid] += 1
                            if ra >= shared_words:
                                layout.translate(pid, ra)  # exact raise
                            rb = ra % dbn
                            ro = ra // dbn
                        dr_bank[pid] = rb
                        dr_off[pid] = ro
                        if p_mmu:
                            bus.emit("mmu.translate", cycle, pid, ra, rb,
                                     ro, ra >= PRIVATE_BASE)
                        dm_count += 1
                        entry = dm_map.get(rb)
                        if entry is None:
                            dm_map[rb] = [ro, 1, False]
                        elif entry[2] or entry[0] != ro \
                                or not data_broadcast:
                            conflict = True
                        else:
                            entry[1] += 1
                    else:
                        dr_bank[pid] = -1
                    if wa is not None:
                        mmu_t[pid] += 1
                        if wa >= PRIVATE_BASE:
                            mmu_p[pid] += 1
                            off = wa - PRIVATE_BASE
                            if off >= pwc:
                                layout.translate(pid, wa)  # exact raise
                            wb = cbanks[pid][off // pwb]
                            wo = swb + off % pwb
                        else:
                            mmu_s[pid] += 1
                            if wa >= shared_words:
                                layout.translate(pid, wa)  # exact raise
                            wb = wa % dbn
                            wo = wa // dbn
                        dw_bank[pid] = wb
                        dw_off[pid] = wo
                        if p_mmu:
                            bus.emit("mmu.translate", cycle, pid, wa, wb,
                                     wo, wa >= PRIVATE_BASE)
                        dm_count += 1
                        if wb in dm_map:
                            conflict = True  # writes never merge
                        else:
                            dm_map[wb] = [wo, 0, True]
                    else:
                        dw_bank[pid] = -1

                # ---- instruction-side conflict proof ----
                im_map = None
                if im_private:
                    pass  # one private bank per core: conflict-free
                elif lockstep:
                    if n_run > 1 and not instr_broadcast:
                        conflict = True
                    if im_interleaved:
                        fb = first_pc % im_banks
                    else:
                        fb = first_pc // im_bank_words
                else:
                    im_map = {}
                    for pid in run_list:
                        pc = cores[pid].pc
                        if im_interleaved:
                            bank = pc % im_banks
                            off = pc // im_banks
                        else:
                            bank = pc // im_bank_words
                            off = pc % im_bank_words
                        im_bank[pid] = bank
                        entry = im_map.get(bank)
                        if entry is None:
                            im_map[bank] = [off, 1]
                        elif entry[0] != off or not instr_broadcast:
                            conflict = True
                        else:
                            entry[1] += 1

                if conflict:
                    # Hand the prepared cycle to the exact loop.  MMU
                    # accounting already happened above (once per
                    # attempt); the loop stages the prepared ports
                    # instead of starting the instructions itself.
                    self.fallbacks += 1
                    return cycle, sync_cycles, True

                # ---- commit the proven conflict-free cycle ----
                cycle += 1
                self.fast_cycles += 1
                if lockstep and n_run > 1:
                    sync_cycles += 1
                elif sink is not None:
                    # One core, or distinct PCs (a shared IM committed
                    # one offset per bank, so its banks count them).
                    if lockstep:
                        size = 1
                    elif im_map is None:
                        size = len(set(map(_pc_of, run_cores)))
                    else:
                        size = len(im_map)
                    groups[size] = groups.get(size, 0) + 1

                im_del += n_run
                if im_private:
                    im_acc += n_run
                    for pid in run_list:
                        last = ilast[pid]
                        if last is not None and last != pid:
                            itrans[pid] += 1
                        ilast[pid] = pid
                elif lockstep:
                    im_acc += 1
                    if n_run > 1:
                        im_bc += 1
                        im_sv += n_run - 1
                        if sink is not None:
                            im_width[n_run] = im_width.get(n_run, 0) + 1
                        if p_im_bc:
                            bus.emit("im.broadcast", cycle - 1, fb, n_run)
                    for pid in run_list:
                        last = ilast[pid]
                        if last is not None and last != fb:
                            itrans[pid] += 1
                        ilast[pid] = fb
                else:
                    im_acc += len(im_map)
                    for bank_id, entry in im_map.items():
                        count = entry[1]
                        if count > 1:
                            im_bc += 1
                            im_sv += count - 1
                            if sink is not None:
                                im_width[count] = im_width.get(count, 0) + 1
                            if p_im_bc:
                                bus.emit("im.broadcast", cycle - 1,
                                         bank_id, count)
                    for pid in run_list:
                        bank = im_bank[pid]
                        last = ilast[pid]
                        if last is not None and last != bank:
                            itrans[pid] += 1
                        ilast[pid] = bank

                if dm_count:
                    dm_del += dm_count
                    dm_acc += len(dm_map)
                    for bank_id, entry in dm_map.items():
                        count = entry[1]
                        if count > 1:
                            dm_bc += 1
                            dm_sv += count - 1
                            if sink is not None:
                                dm_width[count] = dm_width.get(count, 0) + 1
                            if p_dm_bc:
                                bus.emit("dm.broadcast", cycle - 1,
                                         bank_id, count)

                halted_any = False
                for pid in run_list:
                    core = cores[pid]
                    if p_retire:
                        bus.emit("core.retire", cycle - 1, pid, core.pc)
                    rb = dr_bank[pid]
                    if rb >= 0:
                        value = dbanks[rb].storage[dr_off[pid]]
                        dreads += 1
                        last = dlast[pid]
                        if last is not None and last != rb:
                            dtrans[pid] += 1
                        dlast[pid] = rb
                    else:
                        value = None
                    store = handlers[pid].commit(core, value)
                    wb = dw_bank[pid]
                    if wb >= 0:
                        last = dlast[pid]
                        if last is not None and last != wb:
                            dtrans[pid] += 1
                        dlast[pid] = wb
                        if store is not None:
                            dbanks[wb].storage[dw_off[pid]] = \
                                store[1] & 0xFFFF
                            dwrites += 1
                    if core.halted:
                        core_stats[pid].halted_at = cycle
                        running.discard(pid)
                        halted_any = True
                if halted_any:
                    run_list = [pid for pid in run_list
                                if not cores[pid].halted]
                    run_cores = [cores[pid] for pid in run_list]
                if cycle == edge:
                    system._emit_window(
                        bus, cycle, False, sync_cycles, core_stats,
                        im_bc, im_sv, dm_bc + bacc[2], dm_sv + bacc[3],
                        mmu_p, mmu_s)
                    edge += win
                    cap = edge if edge < limit else limit
            return cycle, sync_cycles, False
        finally:
            # Fold the generated blocks' accumulator array into the
            # stretch counters (slot 6 is the fault-offset channel).
            dm_acc += bacc[0]
            dm_del += bacc[1]
            dm_bc += bacc[2]
            dm_sv += bacc[3]
            dreads += bacc[4]
            dwrites += bacc[5]
            if p_ff:
                bus.emit("ff.exit", cycle, cycle - entered_at)
            ix = system.ixbar.stats
            ix.bank_accesses += im_acc
            ix.deliveries += im_del
            ix.broadcasts += im_bc
            ix.broadcast_savings += im_sv
            transitions = ix.bank_transitions
            for pid in range(n):
                if itrans[pid]:
                    transitions[pid] = transitions.get(pid, 0) + itrans[pid]
            system.ixbar._last_bank[:] = ilast
            dx = system.dxbar.stats
            dx.bank_accesses += dm_acc
            dx.deliveries += dm_del
            dx.broadcasts += dm_bc
            dx.broadcast_savings += dm_sv
            transitions = dx.bank_transitions
            for pid in range(n):
                if dtrans[pid]:
                    transitions[pid] = transitions.get(pid, 0) + dtrans[pid]
            system.dxbar._last_bank[:] = dlast
            for pid in range(n):
                if mmu_t[pid]:
                    mmu = system.mmus[pid]
                    mmu.private_accesses += mmu_p[pid]
                    mmu.shared_accesses += mmu_s[pid]
            system._dreads_committed += dreads
            system._dwrites_committed += dwrites
