"""Per-event reference fold of the metrics registry's histograms.

:class:`~repro.obs.metrics.ProbeMetrics` does not subscribe to events:
the run loops fold its four histograms into the bus's metrics sink as
they commit cycles, lockstep blocks and loop traces as constants.
:class:`ReferenceMetrics` is the definition it must reproduce, one
event at a time:

* **sync group** — the distinct PCs of the ``core.retire`` and
  ``core.stall`` events of one cycle;
* **conflict burst** — a run of consecutive cycles with at least one
  ``ixbar.conflict`` or ``dxbar.conflict`` event;
* **broadcast width** — the ``width`` of each ``im.broadcast`` /
  ``dm.broadcast`` event.

It subscribes to per-cycle events, so its runs are observed and take
the trace-free engine paths.  The fold cannot see run boundaries (a
conflict burst at the end of one run would join one at the start of
the next), so compare it one run at a time.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram
from repro.obs.probes import METRIC_HISTOGRAMS


class ReferenceMetrics:
    """The four metric histograms, plus event counts, folded per event."""

    def __init__(self, bus=None):
        self.histograms = {name: Histogram(name)
                           for name in METRIC_HISTOGRAMS}
        self.counts = dict.fromkeys(
            ("retired", "stalls", "ixbar_conflicts", "dxbar_conflicts",
             "im_broadcasts", "dm_broadcasts", "mmu_private",
             "mmu_shared"), 0)
        self._cycle = None
        self._cycle_pcs: set[int] = set()
        self._burst_last = None
        self._burst_len = 0
        if bus is not None:
            self.subscribe(bus)

    def subscribe(self, bus) -> None:
        for event, handler in {
            "core.retire": self._on_retire,
            "core.stall": self._on_stall,
            "ixbar.conflict": self._on_ixbar_conflict,
            "dxbar.conflict": self._on_dxbar_conflict,
            "im.broadcast": self._on_im_broadcast,
            "dm.broadcast": self._on_dm_broadcast,
            "mmu.translate": self._on_translate,
        }.items():
            bus.subscribe(event, handler)

    def finish(self) -> dict:
        """Close the trailing cycle group and conflict burst; returns
        ``{histogram name: {value: count}}``."""
        if self._cycle is not None:
            self.histograms["sync_group_size"].observe(len(self._cycle_pcs))
            self._cycle = None
            self._cycle_pcs = set()
        if self._burst_len:
            self.histograms["conflict_burst_length"].observe(self._burst_len)
            self._burst_last = None
            self._burst_len = 0
        return histograms(self.histograms)

    def _on_active(self, cycle, pc) -> None:
        if cycle != self._cycle:
            if self._cycle is not None:
                self.histograms["sync_group_size"].observe(
                    len(self._cycle_pcs))
            self._cycle = cycle
            self._cycle_pcs = {pc}
        else:
            self._cycle_pcs.add(pc)

    def _on_retire(self, cycle, pid, pc) -> None:
        self.counts["retired"] += 1
        self._on_active(cycle, pc)

    def _on_stall(self, cycle, pid, pc) -> None:
        self.counts["stalls"] += 1
        self._on_active(cycle, pc)

    def _on_conflict(self, cycle) -> None:
        last = self._burst_last
        if last == cycle:
            return  # several banks conflicting in one cycle: one burst cycle
        if last is not None and cycle == last + 1:
            self._burst_len += 1
        else:
            if self._burst_len:
                self.histograms["conflict_burst_length"].observe(
                    self._burst_len)
            self._burst_len = 1
        self._burst_last = cycle

    def _on_ixbar_conflict(self, cycle, bank, masters) -> None:
        self.counts["ixbar_conflicts"] += 1
        self._on_conflict(cycle)

    def _on_dxbar_conflict(self, cycle, bank, masters) -> None:
        self.counts["dxbar_conflicts"] += 1
        self._on_conflict(cycle)

    def _on_im_broadcast(self, cycle, bank, width) -> None:
        self.counts["im_broadcasts"] += 1
        self.histograms["im_broadcast_width"].observe(width)

    def _on_dm_broadcast(self, cycle, bank, width) -> None:
        self.counts["dm_broadcasts"] += 1
        self.histograms["dm_broadcast_width"].observe(width)

    def _on_translate(self, cycle, pid, logical, bank, offset,
                      private) -> None:
        self.counts["mmu_private" if private else "mmu_shared"] += 1


def histograms(source) -> dict:
    """``{histogram name: {value: count}}`` of a
    :class:`~repro.obs.metrics.ProbeMetrics` (or its registry, or a
    name -> :class:`~repro.obs.metrics.Histogram` dict), for equality
    checks against :meth:`ReferenceMetrics.finish`."""
    registry = getattr(source, "registry", source)
    return {name: dict(sorted(registry.get(name).counts.items()))
            for name in METRIC_HISTOGRAMS}
