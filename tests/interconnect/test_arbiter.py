"""Round-robin arbiter fairness."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.interconnect.arbiter import RoundRobinArbiter

from tests.interconnect.xbar_reference import grant


class TestBasics:
    def test_single_requester_always_wins(self):
        arbiter = RoundRobinArbiter(4)
        for __ in range(5):
            assert grant(arbiter, [2]) == 2

    def test_alternation_under_persistent_conflict(self):
        """Paper: 'the requests are served alternately'."""
        arbiter = RoundRobinArbiter(4)
        winners = [grant(arbiter, [1, 3]) for __ in range(6)]
        assert winners == [1, 3, 1, 3, 1, 3]

    def test_pointer_moves_past_winner(self):
        arbiter = RoundRobinArbiter(8)
        assert grant(arbiter, range(8)) == 0
        assert grant(arbiter, range(8)) == 1
        assert grant(arbiter, [0]) == 0
        assert grant(arbiter, range(8)) == 1

    def test_empty_request_set_rejected(self):
        with pytest.raises(ValueError):
            grant(RoundRobinArbiter(4), [])

    def test_out_of_range_requester_rejected(self):
        with pytest.raises(ValueError):
            grant(RoundRobinArbiter(4), [7])

    def test_reset(self):
        arbiter = RoundRobinArbiter(4)
        grant(arbiter, [3])
        arbiter.reset()
        assert arbiter.pointer == 0 and arbiter.grants == 0


class TestFairnessProperty:
    @given(st.sets(st.integers(min_value=0, max_value=7), min_size=1),
           st.integers(min_value=1, max_value=5))
    def test_each_persistent_requester_served_equally(self, requesters,
                                                      rounds):
        """Over k*N grants of a persistent set of N requesters, everyone
        wins exactly k times."""
        arbiter = RoundRobinArbiter(8)
        wins = {requester: 0 for requester in requesters}
        for __ in range(rounds * len(requesters)):
            wins[grant(arbiter, requesters)] += 1
        assert set(wins.values()) == {rounds}

    @given(st.lists(st.sets(st.integers(min_value=0, max_value=7),
                            min_size=1), min_size=1, max_size=50))
    def test_winner_always_a_requester(self, request_sequence):
        arbiter = RoundRobinArbiter(8)
        for requesters in request_sequence:
            assert grant(arbiter, requesters) in requesters


class TestGrantMask:
    @given(st.integers(min_value=1, max_value=12),
           st.lists(st.integers(min_value=1, max_value=(1 << 12) - 1),
                    min_size=1, max_size=40))
    def test_matches_pointer_scan(self, n, masks):
        """The bit-trick winner equals a scan from the pointer."""
        arbiter = RoundRobinArbiter(n)
        pointer = 0
        for mask in masks:
            mask &= (1 << n) - 1
            if not mask:
                continue
            expected = next(candidate for candidate in
                            ((pointer + step) % n for step in range(n))
                            if mask >> candidate & 1)
            pointer = (expected + 1) % n
            assert arbiter.grant_mask(mask) == expected
            assert arbiter.pointer == pointer

    @pytest.mark.parametrize("mask", [0, 1 << 4, -1])
    def test_invalid_masks_rejected(self, mask):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).grant_mask(mask)
