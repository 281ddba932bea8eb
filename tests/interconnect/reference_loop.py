"""The reference cycle loop: the platform's run loop written the plain way.

``MultiCoreSystem.run`` executes the compiled dispatch table, keeps each
port staged in the crossbars until it is granted and settles stall
cycles lazily.  :func:`reference_run` restages every waiting port as a
:class:`~tests.interconnect.xbar_reference.Request` each cycle and
arbitrates it with the list-form
:class:`~tests.interconnect.xbar_reference.ReferenceCrossbar`, previews
and commits through the generic operand walk of
:class:`~repro.tamarisc.cpu.Core`, detects lockstep from a set of fetch
PCs and counts one stall per core and cycle.

Given a ``log`` list, it also records every cycle's events, which the
per-event oracles of the metrics histograms
(``tests/obs/metrics_reference.py``) and of the telemetry windows
(``tests/obs/test_window_oracle.py``) fold.  Each entry is a tuple
``(event, cycle, *payload)``, with 0-based cycles, in cycle order:

=================  ==========================================================
event              payload
=================  ==========================================================
``core.retire``    ``pid, pc`` — core ``pid`` committed the instruction
                   fetched from ``pc``
``core.stall``     ``pid, pc`` — core ``pid`` did not commit: it waits for
                   the instruction fetched from ``pc`` (a clock-stuck core
                   at an instruction boundary: the one at its PC)
``ixbar.conflict`` ``bank, masters`` — unmergeable fetches met in ``bank``;
                   ``masters`` is the sorted contender list
``dxbar.conflict`` ``bank, masters`` — same, data side
``im.broadcast``   ``bank, width`` — one IM access served ``width`` >= 2
                   cores
``dm.broadcast``   ``bank, width`` — same, data side
``mmu.translate``  ``pid, private`` — one data-address translation (once
                   per instruction attempt)
``sync``           (none) — every running core, two or more, requested
                   the fetch of one PC
=================  ==========================================================
"""

from __future__ import annotations

from repro.errors import CycleLimitError, HangError, SimulationError
from repro.platform.stats import CoreStats

from tests.interconnect.xbar_reference import ReferenceCrossbar, Request

MAX_CYCLES = 200_000


class _Attempt:
    """One core's in-flight instruction."""

    def __init__(self, instr, fetch_pc, dr_loc, dw_loc):
        self.instr = instr
        self.fetch_pc = fetch_pc
        self.dr_loc = dr_loc
        self.dw_loc = dw_loc
        self.need_if = True
        self.need_dr = dr_loc is not None
        self.need_dw = dw_loc is not None


def reference_run(system, benchmark, max_cycles=MAX_CYCLES, faults=None,
                  log=None):
    """Run ``benchmark`` on ``system`` with the reference loop; returns
    the :class:`SimulationStats`.

    ``faults`` (a :class:`FaultSession`) is applied between cycles,
    where the platform applies it.  An in-flight instruction keeps the
    PC it was fetched from.  A clock-stuck core issues nothing and
    stalls every cycle; a dead core leaves the run at the fault cycle.
    The reference crossbars' statistics replace the system's, also when
    the run raises.  ``log`` (a list) receives the run's events (see the
    module docstring).
    """
    system.load(benchmark)
    config = system.config
    n = config.n_cores
    ixbar = ReferenceCrossbar(n, config.im_banks, config.instr_broadcast)
    dxbar = ReferenceCrossbar(n, config.dm_banks, config.data_broadcast)
    cores, mmus, decoded = system.cores, system.mmus, system.decoded
    layout = system.dm_layout
    storage = [bank.storage for bank in system.dmem.banks]
    core_stats = [CoreStats() for _ in range(n)]
    attempts = [None] * n
    running = set(range(n))
    stuck = faults.stuck_cores if faults is not None else set()
    watchdog = faults.watchdog_window if faults is not None else 0
    record = log.append if log is not None else lambda event: None
    cycle = sync_cycles = last_progress = 0
    try:
        while running:
            if faults is not None and faults.next_cycle is not None \
                    and cycle >= faults.next_cycle:
                faults.apply_due(system, cycle)
                decoded = system.decoded
                for pid in faults.dead_cores & running:
                    core_stats[pid].halted_at = cycle
                    attempts[pid] = None
                    running.discard(pid)
                last_progress = cycle
                if not running:
                    break
            if cycle >= max_cycles:
                raise CycleLimitError(
                    f"benchmark {benchmark.name!r} did not finish within "
                    f"{max_cycles} cycles on {config.name}")
            now = cycle
            cycle += 1
            im_requests, dm_requests, fetch_pcs = [], [], set()
            for pid in sorted(running):
                if pid in stuck:
                    fetch_pcs.add(None)
                    continue
                core = cores[pid]
                if attempts[pid] is None:
                    if core.pc >= len(decoded):
                        raise SimulationError(
                            f"core {pid} ran off the program at PC "
                            f"{core.pc:#x}")
                    instr = decoded[core.pc]
                    dread, dwrite = core.data_requests(instr)
                    locs = []
                    for request in dread, dwrite:
                        if request is None:
                            locs.append(None)
                            continue
                        locs.append(mmus[pid].translate(request.addr))
                        record(("mmu.translate", now, pid,
                                layout.is_private(request.addr)))
                    attempts[pid] = _Attempt(instr, core.pc, *locs)
                attempt = attempts[pid]
                if attempt.need_if:
                    bank, offset = system.im_layout.locate(
                        pid, attempt.fetch_pc)
                    im_requests.append(Request(pid, bank, offset))
                    fetch_pcs.add(attempt.fetch_pc)
                else:
                    fetch_pcs.add(None)
                if attempt.need_dr:
                    dm_requests.append(Request(pid, *attempt.dr_loc))
                if attempt.need_dw:
                    dm_requests.append(Request(pid, *attempt.dw_loc,
                                               write=True))
            if len(running) > 1 and len(fetch_pcs) == 1 \
                    and None not in fetch_pcs:
                sync_cycles += 1
                record(("sync", now))
            granted = {("im",) + key for key
                       in ixbar.arbitrate(im_requests)}
            granted |= {("dm",) + key for key
                        in dxbar.arbitrate(dm_requests)}
            for xbar, conflict, broadcast in (
                    (ixbar, "ixbar.conflict", "im.broadcast"),
                    (dxbar, "dxbar.conflict", "dm.broadcast")):
                for kind, bank, payload in xbar.events:
                    record((conflict if kind == "conflict" else broadcast,
                            now, bank, payload))
                xbar.events.clear()
            for pid in sorted(running):
                attempt = attempts[pid]
                if pid in stuck:
                    core_stats[pid].stall_cycles += 1
                    record(("core.stall", now, pid, cores[pid].pc
                            if attempt is None else attempt.fetch_pc))
                    continue
                attempt.need_if &= ("im", pid, False) not in granted
                attempt.need_dr &= ("dm", pid, False) not in granted
                attempt.need_dw &= ("dm", pid, True) not in granted
                if attempt.need_if or attempt.need_dr or attempt.need_dw:
                    core_stats[pid].stall_cycles += 1
                    record(("core.stall", now, pid, attempt.fetch_pc))
                    continue
                record(("core.retire", now, pid, attempt.fetch_pc))
                value = None
                if attempt.dr_loc is not None:
                    value = storage[attempt.dr_loc[0]][attempt.dr_loc[1]]
                    system._dreads_committed += 1
                store = cores[pid].execute(attempt.instr, value)
                if store is not None:
                    storage[attempt.dw_loc[0]][attempt.dw_loc[1]] = \
                        store[1] & 0xFFFF
                    system._dwrites_committed += 1
                attempts[pid] = None
                last_progress = cycle
                if cores[pid].halted:
                    core_stats[pid].halted_at = cycle
                    running.discard(pid)
            if watchdog and cycle - last_progress >= watchdog:
                raise HangError(
                    f"sync watchdog: no core retired for {watchdog} "
                    f"cycles (cycle {cycle}) on {config.name}")
    finally:
        system.ixbar.stats = ixbar.stats
        system.dxbar.stats = dxbar.stats
    return system._collect_stats(cycle, sync_cycles, core_stats)
