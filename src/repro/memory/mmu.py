"""Per-core memory-management unit (paper Fig. 2 and Section III-D).

Each core owns one MMU instance holding its PID.  The MMU classifies every
decoded data address as *shared* (pass-through, word-interleaved across the
banks) or *private* (translated so that each PID's working data lands in
banks owned by that core alone).  This is what lets a single compiled
program image serve all eight cores — the proposed architecture's
precondition for instruction broadcasting.

*mc-ref* has no MMU hardware; its per-core program copies reach the same
placement through link-time constants.  Functionally the mapping is
identical, so the simulator uses this class for both and the architectural
difference shows up only in the area/power constants.
"""

from __future__ import annotations

from repro.memory.layout import DataMemoryLayout


class MMU:
    """Translates one core's logical data addresses to (bank, offset)."""

    def __init__(self, pid: int, layout: DataMemoryLayout):
        self.pid = pid
        self.layout = layout
        self.private_accesses = 0
        self.shared_accesses = 0

    @property
    def translations(self) -> int:
        return self.private_accesses + self.shared_accesses

    def translate(self, logical: int) -> tuple[int, int]:
        """Physical (bank, offset) for ``logical``; counts the access mix.

        The platform's run loop translates inline (same mapping, same
        counts)."""
        if self.layout.is_private(logical):
            self.private_accesses += 1
        else:
            self.shared_accesses += 1
        return self.layout.translate(self.pid, logical)

    def translate_quiet(self, logical: int) -> tuple[int, int]:
        """Translate without statistics (used by loaders and inspectors)."""
        return self.layout.translate(self.pid, logical)

    @property
    def private_fraction(self) -> float:
        """Fraction of translated accesses that hit the private window.

        The paper profiles the benchmark at 76 % private vs 24 % shared
        accesses (Section III-D); tests compare against this ratio.
        """
        if not self.translations:
            return 0.0
        return self.private_accesses / self.translations
