"""Cycle-level crossbar with read broadcast and per-bank round-robin.

Every bank serves at most one *access* per cycle, but a read access can
be **broadcast** — all masters reading the same (bank, offset) are
granted together at the cost of a single bank access and with no extra
cycles (paper Section III-B).  Masters that lose arbitration stall (they
are clock-gated by the platform) and their requests stay staged until
granted.

The same class models both crossbars:

* I-Xbar — all requests are instruction reads; broadcast is the paper's
  instruction-broadcast mechanism.
* D-Xbar — read and write requests; writes never merge.  A core has
  separate data-read and data-write ports (the TamaRISC three-port
  interface), so one master may place one read *and* one write per cycle;
  they arbitrate independently, and a read and a write of the same core
  landing in the same single-ported bank serialise like any other
  conflict.

A request is *staged* once (:meth:`Crossbar.stage`), when the master's
instruction starts, and stays in per-bank contention state until
:meth:`Crossbar.resolve` grants it (:meth:`Crossbar.withdraw` drops it
unserved).  That state is a pair of master bit sets per bank — who waits
to read it, who waits to write it — plus the bit set of banks with
waiters, so a cycle costs what changes in it: it touches only the banks
with waiters, builds no per-request objects, and a request still waiting
costs nothing until its bank is served.

Statistics collected here feed the power model directly (bank accesses,
broadcast savings, and per-master bank-transition counts that model
output-net switching activity on the instruction path, which is why the
ulpmc-bank organisation spends less crossbar and core power than
ulpmc-int — Table II's last paragraph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.interconnect.arbiter import RoundRobinArbiter


def masters_of(mask: int) -> list[int]:
    """The sorted master ids of a master bit set (bit ``i``: master
    ``i``)."""
    return [master for master in range(mask.bit_length())
            if mask >> master & 1]


#: ``bit set -> ascending bit indices``, filled on demand and shared by
#: every caller (the masks of a run repeat); emptied when it reaches
#: ``_BITS_LIMIT`` entries, so wide crossbars cannot grow it unbounded.
_BITS: dict[int, tuple[int, ...]] = {}
_BITS_LIMIT = 1 << 16


def bits_of(mask: int) -> tuple[int, ...]:
    """The ascending indices of the set bits of ``mask`` (cached)."""
    bits = _BITS.get(mask)
    if bits is None:
        if len(_BITS) >= _BITS_LIMIT:
            _BITS.clear()
        bits = _BITS[mask] = tuple(masters_of(mask))
    return bits


@dataclass
class XbarStats:
    """Aggregate crossbar activity."""

    #: bank accesses actually performed (after broadcast merging)
    bank_accesses: int = 0
    #: words transferred for masters (= granted requests)
    deliveries: int = 0
    #: accesses saved by broadcast (granted requests minus bank accesses)
    broadcast_savings: int = 0
    #: bank-cycles in which a broadcast (>=2-way merge) happened
    broadcasts: int = 0
    #: requests stalled by losing arbitration (one per waiting cycle)
    stalls: int = 0
    #: bank-cycles with conflicting (non-mergeable) requests
    conflict_events: int = 0
    #: per-master count of granted accesses whose bank differs from the
    #: master's previously granted bank (output-net switching proxy)
    bank_transitions: dict[int, int] = field(default_factory=dict)

    @property
    def total_bank_transitions(self) -> int:
        return sum(self.bank_transitions.values())


class Crossbar:
    """N-master, B-bank single-cycle crossbar.

    Every master owns two ports: port ``2 * master`` reads and port
    ``2 * master + 1`` writes.  Numbering ports master-major makes the
    ascending port order the request order the platform issues (cores
    in PID order, each core's read before its write); where a master
    waits in two banks, banks are served in the order of their lowest
    waiting port, which fixes its bank-transition sequence.
    """

    def __init__(self, masters: int, banks: int, broadcast: bool = True,
                 name: str = "xbar"):
        self.name = name
        self.masters = masters
        self.banks = banks
        self.broadcast = broadcast
        self.arbiters = [RoundRobinArbiter(masters) for _ in range(banks)]
        self.stats = XbarStats()
        self._last_bank = [None] * masters
        #: Contention state, kept across cycles: ``readers[bank]`` and
        #: ``writers[bank]`` are the bit sets of masters with a read /
        #: write staged at ``bank``, ``reading``/``writing`` their
        #: unions and ``active`` the bit set of banks with waiters.
        #: ``read_at[master]`` locates the master's staged read as
        #: ``offset << key_shift | bank`` (-1: none), so equal keys are
        #: exactly the reads one broadcast can serve.  The platform's
        #: cycle loop writes these directly (an inlined :meth:`stage`).
        self.readers = [0] * banks
        self.writers = [0] * banks
        self.active = self.reading = self.writing = 0
        self.read_at = [-1] * masters
        self.key_shift = banks.bit_length()
        #: The metrics sink's ``{width: count}`` histogram of this
        #: crossbar's broadcasts while one is attached (``None``
        #: otherwise).  A histogram does not depend on the order banks
        #: are served in, so it leaves resolve on its cheap bank order.
        self.widths = None

    def stage(self, port: int, bank: int, offset: int) -> None:
        """Stage ``port``'s request for ``(bank, offset)``; it waits in
        the bank's contention state until granted or withdrawn.  A port
        holds at most one request."""
        master = port >> 1
        if port & 1:
            self.writers[bank] |= 1 << master
            self.writing |= 1 << master
        else:
            self.readers[bank] |= 1 << master
            self.reading |= 1 << master
            self.read_at[master] = offset << self.key_shift | bank
        self.active |= 1 << bank

    def withdraw(self, master: int) -> None:
        """Drop ``master``'s staged requests unserved."""
        keep = ~(1 << master)
        readers = self.readers
        writers = self.writers
        for bank in range(self.banks):
            readers[bank] &= keep
            writers[bank] &= keep
            if not (readers[bank] | writers[bank]):
                self.active &= ~(1 << bank)
        self.reading &= keep
        self.writing &= keep
        self.read_at[master] = -1

    def clear(self) -> None:
        """Withdraw every staged request."""
        self.readers[:] = [0] * self.banks
        self.writers[:] = [0] * self.banks
        self.read_at[:] = [-1] * self.masters
        self.active = self.reading = self.writing = 0

    def resolve(self) -> tuple[int, int]:
        """Serve one cycle: every bank with waiters grants one access.

        Same-offset reads merge into one broadcast group when broadcast
        is on; every other request is a group of its own.  A single
        group is served whole, else the bank's round-robin arbiter picks
        a master whose read group wins (the instruction cannot commit
        without it anyway), else its write.  Granted ports leave the
        contention state; the others stay staged and count one stall.
        Returns the bit sets of masters granted a read and a write.
        """
        active = self.active
        if not active:
            return 0, 0
        readers = self.readers
        writers = self.writers
        if not active & (active - 1):
            order = (active.bit_length() - 1,)
        elif self.reading & self.writing:
            # A master may win two banks: the service order is
            # observable in its bank transitions.
            order = self._port_order(active)
        else:
            order = bits_of(active)
        stats = self.stats
        transitions = stats.bank_transitions
        last_bank = self._last_bank
        read_at = self.read_at
        reads = writes = 0
        served = delivered = len(order)  # broadcasts deliver more
        for bank in order:
            r = readers[bank]
            w = writers[bank]
            won = r | w
            if r & w or won & (won - 1):
                # Contended: one broadcast group is served whole, else
                # the round-robin winner's read group or its write.
                seen = count = r.bit_count() + w.bit_count()
                if w or not self.broadcast or read_at.count(
                        read_at[(r & -r).bit_length() - 1]) != seen:
                    stats.conflict_events += 1
                    master = self.arbiters[bank].grant_mask(won)
                    won = 1 << master
                    key = read_at[master]
                    count = 1
                    if r & won and self.broadcast and read_at.count(key) > 1:
                        won = 0
                        for master in bits_of(r):
                            if read_at[master] == key:
                                won |= 1 << master
                        count = won.bit_count()
                stats.stalls += seen - count
                if count > 1:
                    stats.broadcasts += 1
                    stats.broadcast_savings += count - 1
                    delivered += count - 1
                    if self.widths is not None:
                        self.widths[count] = self.widths.get(count, 0) + 1
                    readers[bank] = r ^ won
                    reads |= won
                    if r == won and not w:
                        active ^= 1 << bank
                    for master in bits_of(won):  # in port order
                        read_at[master] = -1
                        last = last_bank[master]
                        if last != bank:
                            if last is not None:
                                transitions[master] = \
                                    transitions.get(master, 0) + 1
                            last_bank[master] = bank
                    continue
                if won & r:
                    readers[bank] = r ^ won
                    reads |= won
                    read_at[master] = -1
                    if r == won and not w:
                        active ^= 1 << bank
                else:
                    writers[bank] = w ^ won
                    writes |= won
                    if w == won and not r:
                        active ^= 1 << bank
            elif r:  # a lone read
                readers[bank] = 0
                reads |= r
                active ^= 1 << bank
                master = r.bit_length() - 1
                read_at[master] = -1
            else:  # a lone write
                writers[bank] = 0
                writes |= w
                active ^= 1 << bank
                master = w.bit_length() - 1
            last = last_bank[master]
            if last != bank:
                if last is not None:
                    transitions[master] = transitions.get(master, 0) + 1
                last_bank[master] = bank
        self.active = active
        self.reading ^= reads
        if writes:
            self.writing ^= writes
        stats.deliveries += delivered
        stats.bank_accesses += served
        return reads, writes

    def _port_order(self, active: int) -> list[int]:
        """The banks of ``active`` ordered by their lowest waiting port
        (a master's read port precedes its write port)."""
        shift = self.key_shift
        keys = []
        for bank in bits_of(active):
            r = self.readers[bank]
            first = r | self.writers[bank]
            first &= -first
            port = (first.bit_length() << 1) - (1 if r & first else 0)
            keys.append(port << shift | bank)
        keys.sort()
        return [key & ((1 << shift) - 1) for key in keys]

    def reset(self) -> None:
        for arbiter in self.arbiters:
            arbiter.reset()
        self.stats = XbarStats()
        self._last_bank = [None] * self.masters
        self.clear()
