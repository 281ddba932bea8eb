"""Crossbar: broadcast merging, conflicts, stalls, transitions."""

from hypothesis import given
from hypothesis import strategies as st

from repro.interconnect import xbar as xbar_module
from repro.interconnect.xbar import Crossbar, bits_of, masters_of

from tests.interconnect.xbar_reference import (ReferenceCrossbar, Request,
                                               arbitrate_list)


def reads(*specs):
    return [Request(master, bank, offset) for master, bank, offset in specs]


class TestBroadcast:
    def test_same_address_reads_merge_into_one_access(self):
        xbar = Crossbar(8, 8, broadcast=True)
        granted = arbitrate_list(xbar, reads(*[(m, 2, 5) for m in range(8)]))
        assert granted == {(m, False) for m in range(8)}
        assert xbar.stats.bank_accesses == 1
        assert xbar.stats.broadcast_savings == 7
        assert xbar.stats.broadcasts == 1
        assert xbar.stats.stalls == 0

    def test_broadcast_disabled_serialises(self):
        xbar = Crossbar(8, 8, broadcast=False)
        granted = arbitrate_list(xbar, reads(*[(m, 2, 5) for m in range(8)]))
        assert len(granted) == 1
        assert xbar.stats.stalls == 7

    def test_different_offsets_same_bank_conflict(self):
        xbar = Crossbar(8, 8, broadcast=True)
        granted = arbitrate_list(xbar, reads((0, 1, 10), (1, 1, 11)))
        assert len(granted) == 1
        assert xbar.stats.conflict_events == 1

    def test_writes_never_merge(self):
        xbar = Crossbar(8, 8, broadcast=True)
        granted = arbitrate_list(xbar, [Request(0, 3, 7, write=True),
                                        Request(1, 3, 7, write=True)])
        assert len(granted) == 1

    def test_partial_broadcast_group_wins_together(self):
        xbar = Crossbar(8, 8, broadcast=True)
        granted = arbitrate_list(xbar,
                                 reads((0, 1, 5), (1, 1, 5), (2, 1, 9)))
        # Round-robin points at master 0; its whole same-address group
        # (masters 0 and 1) is served in the single access.
        assert granted == {(0, False), (1, False)}
        assert xbar.stats.bank_accesses == 1
        assert xbar.stats.stalls == 1


class TestPorts:
    def test_read_and_write_from_same_master_different_banks(self):
        xbar = Crossbar(8, 16, broadcast=True)
        granted = arbitrate_list(xbar, [Request(0, 1, 5),
                                        Request(0, 2, 6, write=True)])
        assert granted == {(0, False), (0, True)}
        assert xbar.stats.bank_accesses == 2

    def test_read_and_write_same_bank_serialise(self):
        """A single-ported bank cannot serve a core's read and write in
        one cycle: the read goes first, the write stays staged."""
        xbar = Crossbar(8, 16, broadcast=True)
        xbar.stage(0, 1, 5)
        xbar.stage(1, 1, 6)
        assert xbar.resolve() == (0b1, 0)
        assert xbar.writers[1] == 0b1 and xbar.active == 1 << 1
        assert xbar.resolve() == (0, 0b1)
        assert xbar.active == 0 and xbar.writing == 0


class TestFairness:
    def test_round_robin_across_cycles(self):
        """Four staged readers of one bank: each wins once in four
        cycles, and the losers keep their requests staged."""
        xbar = Crossbar(4, 4, broadcast=True)
        for master in range(4):
            xbar.stage(2 * master, 0, master + 1)
        winners = []
        for __ in range(4):
            granted, _ = xbar.resolve()
            winners.extend(masters_of(granted))
        assert sorted(winners) == [0, 1, 2, 3]
        assert xbar.active == 0
        assert xbar.stats.stalls == 3 + 2 + 1


class TestTransitions:
    def test_bank_transitions_counted_per_master(self):
        xbar = Crossbar(2, 4, broadcast=True)
        arbitrate_list(xbar, reads((0, 0, 0)))
        arbitrate_list(xbar, reads((0, 1, 0)))   # transition
        arbitrate_list(xbar, reads((0, 1, 1)))   # same bank: no transition
        arbitrate_list(xbar, reads((0, 2, 0)))   # transition
        assert xbar.stats.bank_transitions == {0: 2}
        assert xbar.stats.total_bank_transitions == 2

    def test_first_access_is_not_a_transition(self):
        xbar = Crossbar(2, 4)
        arbitrate_list(xbar, reads((0, 3, 0)))
        assert xbar.stats.total_bank_transitions == 0

    def test_read_and_write_granted_in_port_order(self):
        """The bank-order case: master 1 wins its read (port 2, bank 3)
        and its write (port 3, bank 0) in one cycle.  Banks are served
        by lowest waiting port, so the read's bank comes first: one
        transition, and the write's bank is the last one."""
        xbar = Crossbar(2, 4, broadcast=True)
        arbitrate_list(xbar, reads((1, 3, 0)))
        granted = arbitrate_list(xbar, [Request(1, 3, 1),
                                        Request(1, 0, 2, write=True)])
        assert granted == {(1, False), (1, True)}
        assert xbar.stats.bank_transitions == {1: 1}
        assert xbar._last_bank[1] == 0


class TestInvariants:
    banks = st.integers(min_value=0, max_value=3)
    offsets = st.integers(min_value=0, max_value=7)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              banks, offsets, st.booleans()),
                    min_size=1, max_size=16))
    def test_conservation(self, raw):
        """deliveries == granted requests; accesses <= deliveries;
        stalls == requests - deliveries; at most one access per bank."""
        seen = set()
        requests = []
        for master, bank, offset, write in raw:
            if (master, write) in seen:
                continue
            seen.add((master, write))
            requests.append(Request(master, bank, offset, write=write))
        xbar = Crossbar(8, 4, broadcast=True)
        granted = arbitrate_list(xbar, requests)
        stats = xbar.stats
        assert stats.deliveries == len(granted)
        assert stats.bank_accesses <= stats.deliveries
        assert stats.stalls == len(requests) - stats.deliveries
        touched_banks = {request.bank for request in requests}
        assert stats.bank_accesses == len(touched_banks)

    def test_reset(self):
        xbar = Crossbar(4, 4)
        xbar.stage(0, 0, 0)
        xbar.stage(2, 0, 1)
        xbar.stage(5, 1, 0)
        xbar.resolve()
        xbar.reset()
        assert xbar.stats.bank_accesses == 0
        assert xbar._last_bank == [None] * 4
        assert xbar.active == xbar.reading == xbar.writing == 0
        assert xbar.readers == [0] * 4 and xbar.writers == [0] * 4
        assert xbar.read_at == [-1] * 4


class TestBitsOf:
    @given(st.integers(min_value=0, max_value=(1 << 40) - 1))
    def test_matches_masters_of(self, mask):
        assert bits_of(mask) == tuple(masters_of(mask))

    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(xbar_module, "_BITS", {})
        monkeypatch.setattr(xbar_module, "_BITS_LIMIT", 4)
        for mask in range(1, 40):
            assert bits_of(mask) == tuple(masters_of(mask))
            assert len(xbar_module._BITS) <= 4


class TestEmpty:
    def test_no_requests(self):
        xbar = Crossbar(4, 4)
        assert xbar.resolve() == (0, 0)
        assert xbar.stats.bank_accesses == 0


request = st.tuples(st.integers(min_value=0, max_value=7),
                    st.integers(min_value=0, max_value=3),
                    st.integers(min_value=0, max_value=3),
                    st.booleans())


def _cycle_requests(raw):
    """One cycle's requests in platform order (PID, read before write),
    at most one read and one write per master."""
    ports = {}
    for master, bank, offset, write in raw:
        ports.setdefault((master, write), Request(master, bank, offset,
                                                  write=write))
    return [ports[key] for key in sorted(ports)]


def _assert_same_state(xbar, reference):
    assert xbar.stats == reference.stats
    assert xbar._last_bank == reference.last_bank
    assert [(a.pointer, a.grants) for a in xbar.arbiters] \
        == [(a.pointer, a.grants) for a in reference.arbiters]


class TestStagedMatchesReference:
    """Differential: one fully restaged cycle of the persistent crossbar
    equals the dict/set reference cycle by cycle — grants, every
    statistic, each master's last bank and the arbiter pointers."""

    @given(st.lists(st.lists(request, max_size=16), min_size=1,
                    max_size=12),
           st.booleans())
    def test_cycle_sequences(self, cycles, broadcast):
        xbar = Crossbar(8, 4, broadcast=broadcast)
        reference = ReferenceCrossbar(8, 4, broadcast)
        for raw in cycles:
            requests = _cycle_requests(raw)
            assert arbitrate_list(xbar, requests) \
                == reference.arbitrate(requests)
            _assert_same_state(xbar, reference)

    def test_staged_call_reports_per_port_grants(self):
        """The platform's form: stage ports, resolve, read the granted
        master bit sets; the loser stays staged."""
        xbar = Crossbar(4, 4, broadcast=True)
        for port, bank, offset in [(0, 1, 5), (2, 1, 5), (3, 1, 6),
                                   (4, 2, 0)]:
            xbar.stage(port, bank, offset)
        # Master 0 wins bank 1 (pointer 0): its read group is the
        # offset-5 broadcast with master 1; master 1's write stalls.
        assert xbar.resolve() == (0b111, 0)
        assert xbar.stats.broadcasts == 1 and xbar.stats.stalls == 1
        assert xbar.writers[1] == 0b10 and xbar.writing == 0b10
        assert xbar.active == 1 << 1
        assert xbar.resolve() == (0, 0b10)
        assert xbar.active == 0


def run_streams(cycles, broadcast, masters=8, banks=4):
    """Feed a request stream to the persistent crossbar the way the
    platform does — a master keeps its ungranted ports staged and adds
    new ones only when it has none left — and check it against the
    reference fed the fully restaged list after every cycle.  The
    crossbar may serve banks in index order wherever that order is
    unobservable."""
    xbar = Crossbar(masters, banks, broadcast=broadcast)
    reference = ReferenceCrossbar(masters, banks, broadcast)
    pending: dict[tuple[int, bool], Request] = {}
    for raw in cycles:
        busy = {master for master, _ in pending}
        for request in _cycle_requests(raw):
            if request.master not in busy:
                pending[request.grant_key] = request
                xbar.stage(request.port, request.bank, request.offset)
        requests = [pending[key] for key in sorted(pending)]
        granted = reference.arbitrate(requests)
        reads, writes = xbar.resolve()
        assert {(m, False) for m in masters_of(reads)} \
            | {(m, True) for m in masters_of(writes)} == granted
        _assert_same_state(xbar, reference)
        for key in granted:
            del pending[key]
        assert xbar.reading == sum(1 << master for master, write
                                   in pending if not write)
        assert xbar.writing == sum(1 << master for master, write
                                   in pending if write)
        assert xbar.active == sum({1 << request.bank
                                   for request in pending.values()})
    return xbar


class TestPersistentMatchesReference:
    """Multi-cycle differential: ports stay staged until granted."""

    @given(st.lists(st.lists(request, max_size=16), min_size=1,
                    max_size=24),
           st.booleans())
    def test_request_streams(self, cycles, broadcast):
        run_streams(cycles, broadcast)

    def test_eight_way_contention_on_one_bank(self):
        cycles = [[(m, 0, m % 2, False) for m in range(8)]] * 12
        for broadcast in (True, False):
            xbar = run_streams(cycles, broadcast)
            assert xbar.stats.conflict_events > 0

    def test_read_and_write_of_one_master_in_one_bank(self):
        cycles = [[(3, 1, 4, False), (3, 1, 5, True), (5, 1, 4, False)]]
        for broadcast in (True, False):
            xbar = run_streams(cycles * 4, broadcast)
            assert xbar.stats.conflict_events > 0

    def test_read_and_write_granted_in_different_banks(self):
        # Master 1's read lands in bank 3 and its write in bank 0; the
        # read's port is lower, so bank 3 is served first.
        cycles = [[(1, 3, 0, False)], [(1, 3, 1, False), (1, 0, 2, True)],
                  [(0, 0, 1, True), (1, 3, 2, False), (1, 0, 3, True)]]
        xbar = run_streams(cycles, True)
        assert xbar.stats.bank_transitions == {1: 2}
        assert xbar._last_bank[1] == 3 and xbar.writers[0] == 0b10
