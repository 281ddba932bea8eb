"""The list-form crossbar: the reference the persistent crossbar and the
platform's cycle loop are checked against.

:class:`ReferenceCrossbar` arbitrates one cycle's full request list with
dicts and sets — requests grouped per bank in first-request order,
broadcast groups keyed by offset, the round-robin winner's read group
served before its write — and keeps no state between cycles beyond the
arbiter pointers, statistics and each master's last bank.
:func:`arbitrate_list` runs one such cycle through a
:class:`~repro.interconnect.xbar.Crossbar` by restaging the whole list.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.interconnect.arbiter import RoundRobinArbiter
from repro.interconnect.xbar import XbarStats


@dataclass(frozen=True)
class Request:
    """One master port's request for this cycle.

    ``grant_key`` (``(master, write)``) identifies the port across the
    arbitration result.
    """

    master: int
    bank: int
    offset: int
    write: bool = False

    @property
    def grant_key(self) -> tuple[int, bool]:
        return (self.master, self.write)

    @property
    def port(self) -> int:
        return 2 * self.master + self.write


def grant(arbiter, requesters) -> int:
    """The list form of :meth:`RoundRobinArbiter.grant_mask`: the
    winner among the requester ids ``requesters``."""
    return arbiter.grant_mask(sum(1 << requester
                                  for requester in set(requesters)))


def arbitrate_list(xbar, requests) -> set[tuple[int, bool]]:
    """One cycle of ``requests`` through ``xbar``: withdraw every staged
    port, stage the list, resolve.  Returns the granted port keys."""
    xbar.clear()
    for request in requests:
        xbar.stage(request.port, request.bank, request.offset)
    reads, writes = xbar.resolve()
    return {(master, False) for master in range(xbar.masters)
            if reads >> master & 1} \
        | {(master, True) for master in range(xbar.masters)
           if writes >> master & 1}


class ReferenceCrossbar:
    """The straightforward dict/set arbitration the persistent crossbar
    must reproduce, fed the full request list every cycle."""

    def __init__(self, masters, banks, broadcast):
        self.broadcast = broadcast
        self.arbiters = [RoundRobinArbiter(masters) for _ in range(banks)]
        self.stats = XbarStats()
        self.last_bank = [None] * masters
        self.events = []

    def arbitrate(self, requests):
        by_bank = {}
        for request in requests:
            by_bank.setdefault(request.bank, []).append(request)
        granted = set()
        stats = self.stats
        for bank, bank_requests in by_bank.items():
            winners = self._bank(bank, bank_requests)
            for request in winners:
                granted.add(request.grant_key)
                last = self.last_bank[request.master]
                if last is not None and last != bank:
                    stats.bank_transitions[request.master] = \
                        stats.bank_transitions.get(request.master, 0) + 1
                self.last_bank[request.master] = bank
            stats.deliveries += len(winners)
            stats.bank_accesses += 1
            if len(winners) > 1:
                stats.broadcasts += 1
                stats.broadcast_savings += len(winners) - 1
                self.events.append(("broadcast", bank, len(winners)))
            stats.stalls += len(bank_requests) - len(winners)
        return granted

    def _bank(self, bank, bank_requests):
        if len(bank_requests) == 1:
            return bank_requests
        groups = {}
        for request in bank_requests:
            if self.broadcast and not request.write:
                key = (False, request.offset)
            else:
                key = (True, request.master, request.write)
            groups.setdefault(key, []).append(request)
        if len(groups) == 1:
            return bank_requests
        self.stats.conflict_events += 1
        masters = sorted({request.master for request in bank_requests})
        self.events.append(("conflict", bank, masters))
        winner = grant(self.arbiters[bank], masters)
        candidates = [group for group in groups.values()
                      if any(r.master == winner for r in group)]
        candidates.sort(key=lambda group: any(r.write and r.master == winner
                                              for r in group))
        return candidates[0]
