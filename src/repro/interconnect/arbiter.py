"""Round-robin arbitration (paper: "for fair access to memory banks, a
round-robin scheduler arbitrates access").

One arbiter instance guards one memory bank.  The pointer advances past
each winner, so under a persistent N-way conflict every requester is served
exactly once per N cycles (fairness property, tested with hypothesis).
"""

from __future__ import annotations


class RoundRobinArbiter:
    """Fair single-winner arbiter over ``n`` requesters."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self.pointer = 0
        self.grants = 0

    def grant_mask(self, mask: int) -> int:
        """Pick the winner among the requesters in ``mask`` (bit ``i``
        set: requester ``i`` asks).

        The requester at or first after the pointer wins; the pointer
        then moves just past the winner.
        """
        if mask <= 0 or mask >> self.n:
            raise ValueError(f"requester mask {mask:#x} outside "
                             f"{self.n} requesters")
        pointer = self.pointer
        ahead = mask >> pointer
        if ahead:  # lowest requester at or after the pointer
            winner = pointer + (ahead & -ahead).bit_length() - 1
        else:      # wrap around: lowest requester overall
            winner = (mask & -mask).bit_length() - 1
        self.pointer = winner + 1 if winner + 1 < self.n else 0
        self.grants += 1
        return winner

    def reset(self) -> None:
        self.pointer = 0
        self.grants = 0
