"""The probe bus: named event hooks emitted by the platform simulator.

A :class:`ProbeBus` is a tiny publish/subscribe hub.  The simulator's
cycle loop (:mod:`repro.platform.multicore`) and the streaming driver
(:mod:`repro.platform.streaming`) emit the events below; subscribers —
the Perfetto trace recorder, the telemetry aggregator, the metrics
registry, ad-hoc lambdas in tests — receive them synchronously, in
emission order.  The bus carries only the events a shipped consumer
reads; the crossbars and MMUs account for the rest in their own
counters (bank accesses, broadcasts, conflicts, the MMU access mix),
which the snapshot events and the metrics sink carry.

Performance contract: emission sites hoist ``bus.wants(event)`` into a
local boolean *once per run*, so an unsubscribed event costs a single
local-variable truth test per occurrence and an unattached bus costs
one ``None`` check per run.  The
guard ``benchmarks/bench_obs_overhead.py`` measures the end-to-end cost
of an attached-but-idle bus and fails above 5 %.

Delivery
--------

:meth:`ProbeBus.subscribe` + :meth:`ProbeBus.emit` call every subscriber
synchronously per occurrence.  A per-cycle subscriber (the Perfetto
recorder, tests) needs the per-cycle event stream, so while one is
attached the run is :attr:`~ProbeBus.observed` and the fast-forward
engine runs no loop traces: they commit whole loop iterations and
synthesise no events.  Translation blocks still run, and the run loop
synthesises their ``core.retire`` events.

The metrics registry needs no events at all.  Its four histograms are
folded by the run loops themselves into :attr:`ProbeBus.metrics`, a
sink :class:`~repro.obs.metrics.ProbeMetrics` hangs on the bus (see
:data:`METRIC_HISTOGRAMS`): the run's multi-core lockstep cycles (its
``sync_cycles``) fold into sync-group size 1 once per run, blocks and
loop traces add their broadcasts as constants, and only the exact loop
and per-instruction cycles add one entry per other cycle and per
broadcast.  A sink does not make the run observed, so a profiled run
takes the same engine paths as the benchmarked one.

Sampling (:meth:`ProbeBus.set_sampling`) decimates *delivery* of an
event to every Nth occurrence for long-horizon traces while the bus
keeps an exact occurrence count (:meth:`ProbeBus.occurrences`).  It
touches nothing the metrics sink reads.

Event catalogue (all cycle numbers are 0-based simulation cycles):

=================  ============================================================
event              callback signature
=================  ============================================================
``core.retire``    ``(cycle, pid, pc)`` — core ``pid`` committed the
                   instruction fetched from ``pc`` (includes ``HLT``)
``core.stall``     ``(cycle, pid, pc)`` — core lost arbitration and is
                   clock-gated for this cycle
``ff.exit``        ``(cycle, fast_cycles)`` — the cycle loop stops
                   committing conflict-free cycles (proven cycles, blocks,
                   loop traces) at ``cycle``, after ``fast_cycles`` of
                   them (0 = the first proof failed): a rejected proof, a
                   block's conflict exit, a fault barrier or the end of
                   the run
``block.done``     ``(index, stats)`` — the streaming driver finished and
                   verified block ``index``
``telemetry.window`` ``(end_cycle, final, retired, stalls, totals)`` —
                   the run loop crossed a fixed-cycle telemetry window
                   boundary (see :attr:`ProbeBus.window_cycles`).
                   ``end_cycle`` counts committed cycles; ``retired``
                   and ``stalls`` are per-core tuples and ``totals`` the
                   platform-wide counters in :data:`WINDOW_TOTALS`
                   order, all *cumulative* snapshots of the simulator's
                   own counters at the boundary, so a window is the
                   difference of two snapshots.  ``final`` marks the
                   end of the run (possibly a partial window).
=================  ============================================================

The Perfetto :class:`~repro.obs.perfetto.TraceRecorder` reads
``core.retire``, ``core.stall`` and ``ff.exit``.  ``telemetry.window``
and ``block.done`` are *snapshot* events (:data:`SNAPSHOT_EVENTS`):
their payloads are counters the simulator keeps anyway.  A bus whose
subscribers all listen to snapshot events only is not
:attr:`~ProbeBus.observed`, and the run loops then take the same paths
as an unobserved run — loop traces included.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import ConfigurationError

#: Every event name the platform can emit.  Subscribing to anything else
#: raises, catching typos at subscription time rather than silently
#: observing nothing.
EVENTS = frozenset({
    "core.retire",
    "core.stall",
    "ff.exit",
    "block.done",
    "telemetry.window",
})

#: Events carrying run-level counter snapshots rather than per-cycle
#: occurrences; subscribing to them does not make a run observed.
SNAPSHOT_EVENTS = frozenset({"block.done", "telemetry.window"})

#: The platform-wide cumulative counters of a ``telemetry.window``
#: payload's ``totals`` tuple, in order.
WINDOW_TOTALS = (
    "ixbar_conflicts", "dxbar_conflicts", "im_broadcasts", "dm_broadcasts",
    "im_broadcast_savings", "dm_broadcast_savings", "mmu_private",
    "mmu_shared", "sync_cycles",
)

#: The histograms of the metrics sink (:attr:`ProbeBus.metrics`), in
#: order.  Each is a ``{value: count}`` dict the run loops add to:
#: distinct PCs among the running cores per cycle (a retiring core at
#: its fetch PC, a stalled one at the PC its ``core.stall`` event would
#: carry), lengths of runs of consecutive cycles with a crossbar
#: conflict (closed at the end of every run), and cores served per IM
#: and per DM broadcast.
METRIC_HISTOGRAMS = ("sync_group_size", "conflict_burst_length",
                     "im_broadcast_width", "dm_broadcast_width")


class ProbeBus:
    """Synchronous pub/sub hub for the platform's named probe events."""

    __slots__ = ("_subscribers", "_sample_every", "_sample_seen",
                 "window_cycles", "metrics")

    def __init__(self):
        self._subscribers: dict[str, list] = {}
        self._sample_every: dict[str, int] = {}
        self._sample_seen: dict[str, int] = {}
        #: Telemetry window length in cycles (0 = windowing off).  Set
        #: by a :class:`~repro.obs.telemetry.WindowedAggregator` before
        #: the run; the run loops emit ``telemetry.window`` every time
        #: the committed-cycle count reaches a multiple of this value,
        #: and once more at the end of a run.
        self.window_cycles = 0
        #: Metrics sink: ``None``, or one ``{value: count}`` dict per
        #: :data:`METRIC_HISTOGRAMS` entry, in that order.  Set by
        #: :class:`~repro.obs.metrics.ProbeMetrics` before the run; the
        #: run loop reads it once per run and folds the histograms into
        #: it as it commits cycles.
        self.metrics = None

    # -- subscription ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subscribers)

    @property
    def observed(self) -> bool:
        """True when a subscriber needs per-event delivery, i.e. listens
        to anything beyond :data:`SNAPSHOT_EVENTS`.  The metrics sink
        does not count: the run loops fold it on every engine path."""
        return any(event not in SNAPSHOT_EVENTS
                   for event in self._subscribers)

    def wants(self, event: str) -> bool:
        """True when ``event`` has at least one subscriber."""
        return event in self._subscribers

    def subscribe(self, event: str, callback):
        """Attach ``callback`` to ``event``; returns ``callback``."""
        if event not in EVENTS:
            raise ConfigurationError(
                f"unknown probe event {event!r}; expected one of "
                f"{sorted(EVENTS)}")
        self._subscribers.setdefault(event, []).append(callback)
        return callback

    def unsubscribe(self, event: str, callback) -> None:
        """Detach ``callback`` from ``event`` (no-op if absent)."""
        subscribers = self._subscribers.get(event)
        if subscribers and callback in subscribers:
            subscribers.remove(callback)
            if not subscribers:
                del self._subscribers[event]

    def clear(self) -> None:
        """Detach every subscriber and the metrics sink, and drop
        sampling policies."""
        self._subscribers.clear()
        self._sample_every.clear()
        self._sample_seen.clear()
        self.window_cycles = 0
        self.metrics = None

    # -- sampling ----------------------------------------------------------

    def set_sampling(self, event: str, every: int) -> None:
        """Deliver only every ``every``-th occurrence of ``event``.

        The first occurrence is always delivered, then one per ``every``.
        The bus counts *all* occurrences routed through :meth:`emit`
        (see :meth:`occurrences`).  ``every=1`` removes the policy.
        """
        if event not in EVENTS:
            raise ConfigurationError(
                f"unknown probe event {event!r}; expected one of "
                f"{sorted(EVENTS)}")
        if not isinstance(every, int) or every < 1:
            raise ConfigurationError(
                f"sampling rate must be a positive integer, got {every!r}")
        if every == 1:
            self._sample_every.pop(event, None)
            self._sample_seen.pop(event, None)
        else:
            self._sample_every[event] = every
            self._sample_seen.setdefault(event, 0)

    def sampling(self, event: str) -> int:
        """The active sampling rate for ``event`` (1 = every occurrence)."""
        return self._sample_every.get(event, 1)

    def occurrences(self, event: str) -> int:
        """Exact occurrences of a *sampled* event since its policy was
        set (0 for unsampled events — those deliver everything anyway)."""
        return self._sample_seen.get(event, 0)

    @contextmanager
    def subscribed(self, handlers: dict):
        """Temporarily attach ``{event: callback}`` pairs.

        >>> with bus.subscribed({"core.retire": on_retire}):
        ...     system.run(benchmark)                   # doctest: +SKIP
        """
        for event, callback in handlers.items():
            self.subscribe(event, callback)
        try:
            yield self
        finally:
            for event, callback in handlers.items():
                self.unsubscribe(event, callback)

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, *args) -> None:
        """Deliver ``event`` to its subscribers, in subscription order.

        Emitters are expected to guard this call with a pre-hoisted
        ``wants`` flag; calling it for an unsubscribed event is still
        correct, just not free.  A sampling policy decimates delivery
        while counting every occurrence.
        """
        every = self._sample_every.get(event)
        if every is not None:
            seen = self._sample_seen[event]
            self._sample_seen[event] = seen + 1
            if seen % every:
                return
        for callback in self._subscribers.get(event, ()):
            callback(*args)
