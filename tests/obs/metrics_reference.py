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

The events come from the event log of the reference cycle loop
(:func:`tests.interconnect.reference_loop.reference_run`), not from the
loop under test.  A fold covers one run: a conflict burst closes at the
end of its log, as the run loops close it at the end of every run.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram
from repro.obs.probes import METRIC_HISTOGRAMS

from tests.interconnect.reference_loop import reference_run


class ReferenceMetrics:
    """The four metric histograms of one run, folded per event from its
    reference-loop event log."""

    def __init__(self, log):
        self.histograms = {name: Histogram(name)
                           for name in METRIC_HISTOGRAMS}
        self._cycle = None
        self._cycle_pcs: set[int] = set()
        self._burst_last = None
        self._burst_len = 0
        handlers = {
            "core.retire": self._on_active,
            "core.stall": self._on_active,
            "ixbar.conflict": self._on_conflict,
            "dxbar.conflict": self._on_conflict,
            "im.broadcast": self._on_im_broadcast,
            "dm.broadcast": self._on_dm_broadcast,
        }
        for event, cycle, *payload in log:
            handler = handlers.get(event)
            if handler is not None:
                handler(cycle, *payload)

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

    def _on_active(self, cycle, pid, pc) -> None:
        if cycle != self._cycle:
            if self._cycle is not None:
                self.histograms["sync_group_size"].observe(
                    len(self._cycle_pcs))
            self._cycle = cycle
            self._cycle_pcs = {pc}
        else:
            self._cycle_pcs.add(pc)

    def _on_conflict(self, cycle, bank, masters) -> None:
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

    def _on_im_broadcast(self, cycle, bank, width) -> None:
        self.histograms["im_broadcast_width"].observe(width)

    def _on_dm_broadcast(self, cycle, bank, width) -> None:
        self.histograms["dm_broadcast_width"].observe(width)


def reference_histograms(system, benchmark, faults=None):
    """The reference histograms of one run of ``benchmark`` on
    ``system`` (run by the reference loop), and its stats."""
    log = []
    stats = reference_run(system, benchmark, faults=faults, log=log)
    return ReferenceMetrics(log).finish(), stats


def histograms(source) -> dict:
    """``{histogram name: {value: count}}`` of a
    :class:`~repro.obs.metrics.ProbeMetrics` (or its registry, or a
    name -> :class:`~repro.obs.metrics.Histogram` dict), for equality
    checks against :meth:`ReferenceMetrics.finish`."""
    registry = getattr(source, "registry", source)
    return {name: dict(sorted(registry.get(name).counts.items()))
            for name in METRIC_HISTOGRAMS}
