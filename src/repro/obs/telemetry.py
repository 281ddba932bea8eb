"""Streaming telemetry: rolling fixed-cycle-window summaries of a run.

The probe bus (:mod:`repro.obs.probes`) made instrumentation cheap
enough to leave on, but every consumer so far is post-hoc: metrics,
traces and manifests are inspected after a run ends.  This module adds
the *live* layer: a :class:`WindowedAggregator` turns the run loops'
window-edge counter snapshots into fixed-cycle-window rolling summaries
(:class:`WindowSummary`) while the simulation runs — per-core IPC and
stall counts, fleet retire / stall / crossbar-conflict / broadcast /
MMU-mix rates, lockstep fraction, plus streaming-mode block throughput
and deadline misses.  ``repro watch`` renders these live; run manifests
embed them as the ``telemetry`` block (schema ``repro-manifest/2``);
and :meth:`WindowedAggregator.merge` combines the per-window summaries
of N aggregators (simulation-farm shards) into one fleet view.

Every window is the difference of two cumulative snapshots.  At each
multiple of :attr:`ProbeBus.window_cycles` committed cycles (and once
more, flagged ``final``, at the end of the run) both run loops emit
``telemetry.window`` carrying the simulator's own cumulative counters:
per-core retired/stall counts, lockstep cycles, crossbar conflicts and
broadcasts, and the MMU access mix (the fast-forward engine adds its
not-yet-written-back stretch counters).  The aggregator subscribes to
no per-cycle event, so an aggregated run is not *observed*
(:attr:`ProbeBus.observed`): it runs the same blocks and loop traces as
an unobserved one, with block and trace budgets capped at the next
window edge so every edge is hit exactly.

Determinism contract (test-enforced in ``tests/obs/test_telemetry.py``
and ``tests/obs/test_window_oracle.py``): the counters are
architectural quantities, identical across the exact, fast-forward,
translation-block and loop-trace execution paths after every cycle, so
window summaries are **bit-identical** across them — and equal to a
fold of the per-event probe stream over the same windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.errors import ConfigurationError
from repro.obs.manifest import stats_digest
from repro.obs.probes import WINDOW_TOTALS

#: Default telemetry window length.  Small enough for a responsive live
#: view of the ECG workload (dozens of windows per block), large enough
#: that capping block and trace budgets at window edges costs nothing
#: measurable.
DEFAULT_WINDOW_CYCLES = 8192

#: Schema tag of the ``telemetry`` manifest block.
TELEMETRY_SCHEMA = "telemetry/1"

#: Integer counter fields of :class:`WindowSummary`, in declaration
#: order — the fields :meth:`WindowSummary.combine` sums and
#: :meth:`WindowedAggregator.totals` accumulates.
COUNTER_FIELDS = ("retired", "stalls") + WINDOW_TOTALS


def percentile(values, fraction: float):
    """Smallest value covering ``fraction`` of ``values`` (None if empty).

    Matches :meth:`repro.obs.metrics.Histogram.percentile` semantics so
    window-derived and histogram-derived percentiles agree.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]


@dataclass(frozen=True)
class WindowSummary:
    """One closed telemetry window: pure integer counters plus geometry.

    ``start_cycle``/``end_cycle`` are *stream* cycles: across a
    multi-block streaming run the aggregator keeps accumulating, adding
    each finished run's cycle count as an offset, so windows of block N
    do not alias windows of block N+1.  All counters are exact event
    counts within ``[start_cycle, end_cycle)``; per-core tuples come
    from the boundary snapshots the run loops emit.
    """

    index: int
    start_cycle: int
    end_cycle: int
    final: bool
    retired: int
    stalls: int
    ixbar_conflicts: int
    dxbar_conflicts: int
    im_broadcasts: int
    dm_broadcasts: int
    im_broadcast_savings: int
    dm_broadcast_savings: int
    mmu_private: int
    mmu_shared: int
    sync_cycles: int
    core_retired: tuple
    core_stalls: tuple

    # -- derived rates -----------------------------------------------------

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def ipc(self) -> float:
        """Fleet instructions per cycle (all cores summed)."""
        return self.retired / self.cycles if self.cycles else 0.0

    @property
    def stall_rate(self) -> float:
        """Stall events per cycle (all cores summed)."""
        return self.stalls / self.cycles if self.cycles else 0.0

    @property
    def conflicts(self) -> int:
        return self.ixbar_conflicts + self.dxbar_conflicts

    @property
    def conflicts_per_kcycle(self) -> float:
        return 1000.0 * self.conflicts / self.cycles if self.cycles else 0.0

    @property
    def broadcasts_per_kcycle(self) -> float:
        total = self.im_broadcasts + self.dm_broadcasts
        return 1000.0 * total / self.cycles if self.cycles else 0.0

    @property
    def lockstep_fraction(self) -> float:
        return self.sync_cycles / self.cycles if self.cycles else 0.0

    @property
    def mmu_private_fraction(self) -> float:
        total = self.mmu_private + self.mmu_shared
        return self.mmu_private / total if total else 0.0

    @property
    def core_ipc(self) -> tuple:
        cycles = self.cycles
        if not cycles:
            return tuple(0.0 for _ in self.core_retired)
        return tuple(retired / cycles for retired in self.core_retired)

    def to_dict(self) -> dict:
        """JSON-friendly dump (integers only — digestable bit-exactly)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "WindowSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        The farm ships window lists across process boundaries as plain
        dicts (JSON/pickle-safe); this is the inverse, with the digest
        contract preserved: ``from_dict(w.to_dict()).to_dict() ==
        w.to_dict()`` bit-for-bit.
        """
        try:
            kwargs = {f.name: payload[f.name] for f in fields(cls)}
        except KeyError as exc:
            raise ConfigurationError(
                f"window-summary dict is missing field {exc.args[0]!r}") \
                from None
        kwargs["core_retired"] = tuple(kwargs["core_retired"])
        kwargs["core_stalls"] = tuple(kwargs["core_stalls"])
        return cls(**kwargs)

    @classmethod
    def combine(cls, summaries) -> "WindowSummary":
        """Merge same-index windows from several shards into one.

        Integer counters sum; per-core tuples concatenate (the fleet's
        cores are the union of the shards' cores); the window geometry
        spans the shards.
        """
        summaries = list(summaries)
        if not summaries:
            raise ConfigurationError("cannot combine zero window summaries")
        first = summaries[0]
        if any(s.index != first.index for s in summaries):
            raise ConfigurationError(
                "combine() merges same-index windows across shards; got "
                f"indices {sorted({s.index for s in summaries})}")
        merged = {name: sum(getattr(s, name) for s in summaries)
                  for name in COUNTER_FIELDS}
        core_retired = []
        core_stalls = []
        for summary in summaries:
            core_retired.extend(summary.core_retired)
            core_stalls.extend(summary.core_stalls)
        return cls(
            index=first.index,
            start_cycle=min(s.start_cycle for s in summaries),
            end_cycle=max(s.end_cycle for s in summaries),
            final=all(s.final for s in summaries),
            core_retired=tuple(core_retired),
            core_stalls=tuple(core_stalls),
            **merged)


def merge_window_lists(*shards) -> list[WindowSummary]:
    """Fleet view over plain window lists (one per shard).

    Windows are aligned by index and combined via
    :meth:`WindowSummary.combine`; shards with fewer windows simply
    stop contributing after their last one (a short patient run ends,
    the rest of the fleet keeps going), and empty shards are no-ops.
    The operation is associative — merging merges gives the same
    windows as one flat merge — which lets the farm fold results in
    completion order.  Accepts :class:`WindowSummary` objects or their
    :meth:`~WindowSummary.to_dict` dumps.
    """
    by_index: dict[int, list] = {}
    for windows in shards:
        for window in windows:
            if isinstance(window, dict):
                window = WindowSummary.from_dict(window)
            by_index.setdefault(window.index, []).append(window)
    return [WindowSummary.combine(by_index[index])
            for index in sorted(by_index)]


def summaries_digest(summaries) -> str:
    """Stable sha256 over a window-summary sequence.

    Identical runs — regardless of execution mode or probe delivery
    mode — produce identical digests; the regression machinery compares
    them exactly like ``stats_digest``.
    """
    return stats_digest([summary.to_dict() for summary in summaries])


class WindowedAggregator:
    """Bus subscriber turning window-edge snapshots into summaries.

    Usage mirrors :class:`~repro.obs.metrics.ProbeMetrics`::

        telemetry = WindowedAggregator.attach(system.probe_bus())
        system.run(benchmark)
        windows = telemetry.finish()      # list[WindowSummary]
        print(telemetry.fleet_summary())

    It subscribes to the snapshot events only (``telemetry.window``,
    ``block.done``), so attaching it leaves the run on its unobserved
    paths (see the module docstring).

    Live consumers append a callback to :attr:`listeners`; it fires with
    each :class:`WindowSummary` the moment its window closes (from
    inside the simulation loop — keep it cheap).

    ``deadline_budget_cycles`` arms streaming-mode accounting: every
    ``block.done`` event whose block exceeded the budget counts as a
    deadline miss (:attr:`deadline_misses`).
    """

    def __init__(self, window_cycles: int = DEFAULT_WINDOW_CYCLES,
                 deadline_budget_cycles: float | None = None):
        if not isinstance(window_cycles, int) or window_cycles < 1:
            raise ConfigurationError(
                f"window_cycles must be a positive integer, "
                f"got {window_cycles!r}")
        self.window_cycles = window_cycles
        self.deadline_budget_cycles = deadline_budget_cycles
        self.windows: list[WindowSummary] = []
        self.listeners: list = []
        # streaming-mode accounting
        self.blocks_done = 0
        self.block_cycles: list[int] = []
        self.deadline_misses = 0
        # The snapshot at the last boundary of the current run
        # ``(retired, stalls, totals)``; None at a run's start, where
        # every counter is zero.
        self._base = None
        self._prev_end = 0      # run-relative cycle of the last boundary
        self._offset = 0        # stream offset of finished runs
        self._bus = None

    # -- wiring ------------------------------------------------------------

    @classmethod
    def attach(cls, bus, window_cycles: int = DEFAULT_WINDOW_CYCLES,
               deadline_budget_cycles: float | None = None) \
            -> "WindowedAggregator":
        aggregator = cls(window_cycles,
                         deadline_budget_cycles=deadline_budget_cycles)
        aggregator.subscribe(bus)
        return aggregator

    def subscribe(self, bus) -> None:
        self._bus = bus
        bus.window_cycles = self.window_cycles
        bus.subscribe("telemetry.window", self._on_window)
        bus.subscribe("block.done", self._on_block)

    def detach(self) -> None:
        if self._bus is None:
            return
        self._bus.unsubscribe("telemetry.window", self._on_window)
        self._bus.unsubscribe("block.done", self._on_block)
        self._bus.window_cycles = 0
        self._bus = None

    def finish(self) -> list[WindowSummary]:
        """The closed windows (the run loops close the final partial
        window themselves via the ``final`` boundary)."""
        return self.windows

    # -- events ------------------------------------------------------------

    def _on_block(self, index, stats) -> None:
        self.blocks_done += 1
        self.block_cycles.append(stats.total_cycles)
        budget = self.deadline_budget_cycles
        if budget is not None and stats.total_cycles > budget:
            self.deadline_misses += 1

    def _on_window(self, end_cycle, final, retired, stalls, totals) -> None:
        start = self._prev_end
        if end_cycle > start:
            base_retired, base_stalls, base_totals = self._base or (
                (0,) * len(retired), (0,) * len(stalls), (0,) * len(totals))
            core_retired = tuple(
                now - base for now, base in zip(retired, base_retired))
            core_stalls = tuple(
                now - base for now, base in zip(stalls, base_stalls))
            counters = (now - base for now, base in zip(totals, base_totals))
            summary = WindowSummary(
                index=len(self.windows),
                start_cycle=self._offset + start,
                end_cycle=self._offset + end_cycle,
                final=final,
                retired=sum(core_retired),
                stalls=sum(core_stalls),
                core_retired=core_retired,
                core_stalls=core_stalls,
                **dict(zip(WINDOW_TOTALS, counters)))
            self.windows.append(summary)
            for listener in self.listeners:
                listener(summary)
        if final:
            # End of one run: the next run's cycle count and cumulative
            # snapshots restart from zero (streaming re-loads the
            # machine), so shift the stream offset and drop the base.
            self._offset += end_cycle
            self._prev_end = 0
            self._base = None
        else:
            self._prev_end = end_cycle
            self._base = (retired, stalls, totals)

    # -- reductions --------------------------------------------------------

    def totals(self) -> dict:
        """Whole-stream sums over all closed windows.

        Bit-equal to the whole-run ``SimulationStats`` counters and the
        metrics registry's histogram totals (the telemetry property
        suite asserts this): windowing partitions the run, it never
        resamples it.
        """
        out = dict.fromkeys(COUNTER_FIELDS, 0)
        for window in self.windows:
            for name in COUNTER_FIELDS:
                out[name] += getattr(window, name)
        out["cycles"] = sum(window.cycles for window in self.windows)
        return out

    def merge(self, *others) -> list[WindowSummary]:
        """Fleet view: combine this aggregator's windows with others'.

        Accepts aggregators or plain window lists.  Windows are aligned
        by index (farm shards running the same workload close windows at
        the same boundaries); see :meth:`WindowSummary.combine` and
        :func:`merge_window_lists`.
        """
        groups = [self.windows]
        for other in others:
            groups.append(other.windows
                          if isinstance(other, WindowedAggregator)
                          else list(other))
        return merge_window_lists(*groups)

    def fleet_summary(self, recent: int = 16) -> dict:
        """Rolling fleet digest: totals plus last/mean/p50/p99 of the
        per-window rates over the ``recent`` most recent windows."""
        windows = self.windows[-recent:] if recent else list(self.windows)
        rates = {
            "ipc": [w.ipc for w in windows],
            "stall_rate": [w.stall_rate for w in windows],
            "conflicts_per_kcycle": [w.conflicts_per_kcycle
                                     for w in windows],
            "broadcasts_per_kcycle": [w.broadcasts_per_kcycle
                                      for w in windows],
            "lockstep_fraction": [w.lockstep_fraction for w in windows],
        }
        summary = {
            "windows": len(self.windows),
            "window_cycles": self.window_cycles,
            "stream_cycles": self.windows[-1].end_cycle
            if self.windows else 0,
            "totals": self.totals(),
            "rates": {
                name: {
                    "last": values[-1] if values else None,
                    "mean": sum(values) / len(values) if values else None,
                    "p50": percentile(values, 0.50),
                    "p99": percentile(values, 0.99),
                } for name, values in rates.items()
            },
        }
        if self.blocks_done:
            summary["streaming"] = {
                "blocks_done": self.blocks_done,
                "deadline_budget_cycles": self.deadline_budget_cycles,
                "deadline_misses": self.deadline_misses,
                "worst_block_cycles": max(self.block_cycles),
                "p50_block_cycles": percentile(self.block_cycles, 0.50),
            }
        return summary

    def digest(self) -> str:
        """Stable sha256 over every closed window (see
        :func:`summaries_digest`)."""
        return summaries_digest(self.windows)

    def telemetry_block(self) -> dict:
        """The ``telemetry`` block a ``repro-manifest/2`` record embeds."""
        return {
            "schema": TELEMETRY_SCHEMA,
            "window_cycles": self.window_cycles,
            "windows": len(self.windows),
            "digest": self.digest(),
            "window_digests": [summaries_digest([window])
                               for window in self.windows],
            "fleet": self.fleet_summary(),
        }
