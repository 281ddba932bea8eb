"""Per-load state of the cycle loop's fast-forward shortcuts.

On the evaluated workloads most cycles are *conflict-free*: every
request is granted at once (mc-ref fetches from private banks;
ulpmc-int/-bank fetch in lockstep and broadcast; the MMU keeps private
data in per-core banks).  :meth:`MultiCoreSystem.run
<repro.platform.multicore.MultiCoreSystem.run>` proves such cycles from
the ports its instruction start translated and commits them without
arbitration, and while the running cores share one PC it commits whole
translation blocks and loop traces (:mod:`repro.tamarisc.blocks`), and
it commits serialised rounds where the cores queue on one IM bank.

A :class:`FastForwardEngine` is what those shortcuts keep across a run
and between stretches: the block and trace records of the loaded
program, the successor profile that grows traces, and the tier counters
(``fast_cycles``, ``fallbacks``, ``block_cycles``, ``trace_cycles``,
``block_entries``, ``trace_entries``, and ``round_cycles``, the part of
``fast_cycles`` committed in serialised rounds) that benchmarks and
:meth:`~FastForwardEngine.block_summary` report.  ``MultiCoreSystem``
builds one per load when ``fast_forward`` is on; without it the same
loop resolves every cycle through the crossbars.
"""

from __future__ import annotations

import weakref

from repro.memory.layout import IMOrganization
from repro.tamarisc import blocks as tblocks
from repro.tamarisc.cpu import PC_MASK
from repro.tamarisc.dispatch import branch_targets

#: Sentinel distinguishing "no cached verdict" from "block unusable".
_UNSET = object()

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
    """Block/trace records, successor profile and tier counters of one
    loaded program on one system (see the module docstring)."""

    def __init__(self, system, decoded, img_hash):
        # Weak: the system owns its engine.  A strong back-reference
        # makes every system a reference cycle that only the cyclic
        # collector frees; the run loops allocate little, so it seldom
        # runs, and finished systems (each holding its memory images)
        # pile up — peak RSS then grows with the number of runs.
        self._system = weakref.ref(system)
        config = system.config
        n = config.n_cores
        self.im_private = config.im_org == IMOrganization.PRIVATE
        dm = system.dm_layout
        self.core_banks = [dm.core_banks(i) for i in range(n)]
        # Diagnostics (not part of SimulationStats).
        self.fast_cycles = 0
        self.fallbacks = 0
        self.round_cycles = 0  # serialised rounds, in fast_cycles
        # ---- translation-block layer (see repro.tamarisc.blocks) ----
        self._blocks = TRANSLATION_BLOCKS
        self._decoded = decoded
        self._img_hash = img_hash
        # Blocks batch whole lockstep stretches, so they are only legal
        # when the per-cycle proof would accept every lockstep fetch:
        # private I-banks or an instruction broadcast bus.  Without
        # either, single-core stretches still qualify.
        self._blocks_static = self._blocks \
            and (self.im_private or config.instr_broadcast)
        self._block_env = (dm.private_words_per_core,
                           dm.private_words_per_bank,
                           dm.shared_words_per_bank, dm.shared_words,
                           dm.banks, config.data_broadcast)
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
        # Traces run whenever no per-cycle subscriber is attached (those
        # keep the per-cycle event synthesis of the block/cycle paths;
        # telemetry windows only cap trace budgets at window edges).
        # Their state lives here so profile data survives stretches.
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
        instruction unsupported); the cycle loop then keeps proving
        that PC's cycles one at a time.
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
        system = self._system()
        run = block.build(
            self._block_env, system.dm_layout, self.core_banks,
            [bank.storage for bank in system.dmem.banks],
            self._brb, self._bro, self._bwb, self._bwo,
            system._dr_bank, system._dr_off, system._dw_bank,
            system._dw_off)
        if self.im_private:
            fb_seq = None
            fb_cum = None
        else:
            locate = system.im_layout.locate
            fb_seq = tuple(locate(0, pc + t)[0] for t in range(block.total))
            # fb_cum[j]: bank transitions *inside* the first j+1 fetches.
            fb_cum = [0] * block.total
            for t in range(1, block.total):
                fb_cum[t] = fb_cum[t - 1] + (fb_seq[t] != fb_seq[t - 1])
        record = (block, block.total, run, block.handlers, fb_seq, fb_cum,
                  block.terminator == "hlt")
        self._block_recs[pc] = record
        return record

    def _block_at(self, pc):
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
            rec = self._block_at(pc)
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
            taken, fallthrough = branch_targets(
                block.instrs[-1], (block.start + block.n_body) & PC_MASK)
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
        rec = self._block_at(start)
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
        taken, fallthrough = branch_targets(
            anchor.instrs[-1], (anchor.start + anchor.n_body) & PC_MASK)
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
            self._block_env, system.dm_layout, self.core_banks,
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
            locate = system.im_layout.locate
            for index in range(len(trace.arms)):
                fb_seq = [locate(0, p)[0] for p in trace.arm_pcs(index)]
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
            "round_cycles": self.round_cycles,
        }
