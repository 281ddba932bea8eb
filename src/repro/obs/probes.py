"""The probe bus: named event hooks emitted by the platform simulator.

A :class:`ProbeBus` is a tiny publish/subscribe hub.  The simulator
(:mod:`repro.platform.multicore`), the fast-forward engine
(:mod:`repro.platform.fast_forward`) and the streaming driver
(:mod:`repro.platform.streaming`) emit the events below; subscribers —
the trace recorder, the metrics collector, ad-hoc lambdas in tests —
receive them synchronously, in emission order.

Performance contract: emission sites hoist ``bus.wants(event)`` into a
local boolean *once per run* (or once per fast-forward stretch), so an
unsubscribed event costs a single local-variable truth test per
occurrence and an unattached bus costs one ``None`` check per run.  The
guard ``benchmarks/bench_obs_overhead.py`` measures the end-to-end cost
of an attached-but-idle bus and fails above 5 %.

Delivery modes
--------------

Per-event delivery (:meth:`ProbeBus.subscribe` + :meth:`ProbeBus.emit`)
calls every subscriber synchronously per occurrence — flexible, but a
full metrics collector costs 10-60 % end to end.  For the hot events the
bus therefore also offers **batched delivery**: a subscriber registers a
*drain* with :meth:`ProbeBus.subscribe_batch`, occurrences accumulate
into a typed ring buffer (:class:`EventRing`, one flat Python list of
integers, convertible to a NumPy array in one call), and the drain
consumes whole batches at :meth:`ProbeBus.flush` time.  When an event
has *only* batch subscribers (no per-event subscriber, no sampling) the
emission site fetches the ring via :meth:`ProbeBus.batch` and appends
raw scalars directly — a single bound ``list.append`` per occurrence —
which keeps the fully-subscribed metrics overhead below 10 %
(``bench_obs_overhead.py`` gates this).  Both delivery modes produce
bit-identical aggregate metrics (``tests/obs/test_probe_properties.py``).

Each hot event has a fixed batch schema (:data:`BATCH_COLUMNS`): the
ring carries only the columns aggregate metrics need.  For
``core.retire``/``core.stall`` the ring stores the raw ``pc`` object per
occurrence (appending an existing int allocates nothing) plus
``(cycle, start_offset, stride)`` segment marks in a side ``marks`` list;
:meth:`EventRing.as_array` reconstructs the packed ``(cycle, pc)``
encoding (:func:`pack_cycle_pc`) vectorised at drain time, so the hot
path stays a single bound ``list.append``.

Sampling (:meth:`ProbeBus.set_sampling`) decimates *delivery* of an
event to every Nth occurrence for long-horizon traces while the bus
keeps an exact occurrence count (:meth:`ProbeBus.occurrences`), so
event-derived counters stay exact even under heavy decimation.

Event catalogue (all cycle numbers are 0-based simulation cycles):

=================  ============================================================
event              callback signature
=================  ============================================================
``core.retire``    ``(cycle, pid, pc)`` — core ``pid`` committed the
                   instruction fetched from ``pc`` (includes ``HLT``)
``core.stall``     ``(cycle, pid, pc)`` — core lost arbitration and is
                   clock-gated for this cycle
``ixbar.conflict`` ``(cycle, bank, masters)`` — non-mergeable instruction
                   fetches met in ``bank``; ``masters`` is the sorted
                   contender list
``dxbar.conflict`` ``(cycle, bank, masters)`` — same, data side
``im.broadcast``   ``(cycle, bank, width)`` — one IM access served
                   ``width`` >= 2 cores
``dm.broadcast``   ``(cycle, bank, width)`` — same, data side
``mmu.translate``  ``(cycle, pid, logical, bank, offset, private)`` — one
                   data-address translation (once per instruction attempt)
``ff.enter``       ``(cycle)`` — the fast-forward engine takes over at
                   ``cycle``
``ff.exit``        ``(cycle, fast_cycles)`` — the engine hands back after
                   batch-committing ``fast_cycles`` cycles (0 = immediate
                   fallback)
``ff.block``       ``(cycle, entries, compiled, block_cycles)`` — one
                   fast-forward stretch used the translation-block layer:
                   ``entries`` block executions (``compiled`` of them
                   newly translated) covering ``block_cycles`` cycles
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
                   end of the run (possibly a partial window).  With a
                   per-event subscriber attached the loops ``flush()``
                   the bus first, so no batched ring spans a boundary.
=================  ============================================================

``telemetry.window`` and ``block.done`` are *snapshot* events
(:data:`SNAPSHOT_EVENTS`): their payloads are counters the simulator
keeps anyway.  A bus whose subscribers all listen to snapshot events
only is not :attr:`~ProbeBus.observed`, and the run loops then take the
same paths as an unobserved run — loop traces included.
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
    "ixbar.conflict",
    "dxbar.conflict",
    "im.broadcast",
    "dm.broadcast",
    "mmu.translate",
    "ff.enter",
    "ff.exit",
    "ff.block",
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

#: Bits reserved for the PC in the packed ``(cycle, pc)`` encoding of
#: the ``core.retire``/``core.stall`` ring buffers.  26 bits cover any
#: realistic program (the largest IM holds 2^15 words) while cycle
#: counts up to 2^37 stay exactly representable in an int64.
PC_BITS = 26
PC_MASK = (1 << PC_BITS) - 1


def pack_cycle_pc(cycle: int, pc: int) -> int:
    """One-integer encoding of a retire/stall occurrence."""
    return (cycle << PC_BITS) | pc


def unpack_cycle_pc(packed: int) -> tuple[int, int]:
    """Inverse of :func:`pack_cycle_pc`."""
    return packed >> PC_BITS, packed & PC_MASK


#: Batch schema: the typed ring columns each hot event accumulates.
#: Cold events (``ff.*``, ``block.done``) carry rich payloads at low
#: rates and stay on per-event delivery.
BATCH_COLUMNS = {
    "core.retire": ("cycle_pc",),
    "core.stall": ("cycle_pc",),
    "ixbar.conflict": ("cycle",),
    "dxbar.conflict": ("cycle",),
    "im.broadcast": ("width",),
    "dm.broadcast": ("width",),
    "mmu.translate": ("private",),
}

#: Reduce a full per-event argument tuple to the ring scalar, used when
#: ``emit`` has to feed a ring (mixed per-event + batch subscribers).
#: ``cycle_pc`` events reduce to the bare ``pc``; ``emit`` maintains the
#: cycle ``marks`` separately.
_BATCH_PACK = {
    "core.retire": lambda args: args[2],
    "core.stall": lambda args: args[2],
    "ixbar.conflict": lambda args: args[0],
    "dxbar.conflict": lambda args: args[0],
    "im.broadcast": lambda args: args[2],
    "dm.broadcast": lambda args: args[2],
    "mmu.translate": lambda args: args[5],
}


class EventRing:
    """Typed ring buffer accumulating one hot event between flushes.

    ``data`` is a flat list of integers, one scalar per occurrence (the
    column layout is :data:`BATCH_COLUMNS`).  Hot emission sites append
    to it directly via the bound ``data.append``; drains consume the
    whole batch and the bus clears it in place afterwards, so the bound
    append stays valid across flushes.

    ``cycle_pc`` events additionally keep ``marks``, a flat list of
    ``cycle, start_offset, stride`` triples written by the run loops
    *before* the appends they describe.  ``stride == 0`` means every
    event from ``start_offset`` up to the next mark belongs to
    ``cycle`` (the cycle-stepped loop writes one such mark per cycle
    that has events and is not a lockstep cycle);
    ``stride == k > 0`` means the events partition into groups of ``k``
    with consecutive cycles starting at ``cycle`` (the fast-forward
    engine writes one such mark per stretch segment, since every
    committed cycle retires exactly its ``k`` running cores); and
    ``stride == -r < 0`` is the run-length form for lockstep segments —
    each stored item is the single pc shared by all ``r`` events of one
    cycle, cycles consecutive from ``cycle``, so one lockstep cycle
    costs one append instead of ``r`` (both loops write it; writers of
    such marks must also set :attr:`rle`).  Storing
    the bare ``pc`` per occurrence (an object that already exists)
    instead of a packed ``(cycle << PC_BITS) | pc`` integer avoids one
    heap allocation per event, which is what keeps the hot path at
    bound-``list.append`` cost.  Segment start cycles are strictly
    increasing; zero-event marks are tolerated by the reconstruction
    (their count diff is simply zero).
    """

    __slots__ = ("event", "columns", "data", "marks", "pack", "rle")

    def __init__(self, event: str):
        self.event = event
        self.columns = BATCH_COLUMNS[event]
        self.data: list[int] = []
        self.marks: list[int] | None = \
            [] if self.columns == ("cycle_pc",) else None
        self.pack = _BATCH_PACK[event]
        #: True while ``marks`` holds at least one run-length segment,
        #: i.e. item count != occurrence count.  Set by the emitting
        #: loop, reset on :meth:`clear`.
        self.rle = False

    def __len__(self) -> int:
        """Number of pending *occurrences* (expanding RLE segments)."""
        return self.occurrence_count()

    def occurrence_count(self) -> int:
        """Exact pending occurrences, without touching NumPy.

        For non-RLE rings this is just ``len(data)``.  With run-length
        segments each stored item of a ``stride == -r`` segment stands
        for ``r`` occurrences; the marks are few (one triple per
        segment), so walking them in pure Python is cheaper than the
        vectorised expansion when only the count is needed (the
        windowed-telemetry drains call this once per flush).
        """
        if not self.rle:
            return len(self.data)
        marks = self.marks
        total = 0
        n_marks = len(marks)
        data_len = len(self.data)
        for index in range(0, n_marks, 3):
            start = marks[index + 1]
            stride = marks[index + 2]
            end = marks[index + 4] if index + 4 < n_marks else data_len
            items = end - start
            total += items * -stride if stride < 0 else items
        return total

    def _packed_items(self):
        """Packed value and repeat count per stored item, vectorised."""
        import numpy
        data = self.data
        values = numpy.fromiter(data, dtype=numpy.int64, count=len(data))
        starts = numpy.asarray(self.marks[0::3], dtype=numpy.int64)
        bounds = numpy.asarray(self.marks[1::3] + [len(self.data)],
                               dtype=numpy.int64)
        counts = numpy.diff(bounds)
        strides = numpy.asarray(self.marks[2::3], dtype=numpy.int64)
        cycles = numpy.repeat(starts, counts)
        reps = None
        if strides.size and (strides.min() < 0 or strides.max() > 0):
            # Stride segments: event i belongs to cycle start + i // k.
            # RLE segments: item i IS cycle start + i, repeated r times.
            within = numpy.arange(values.size, dtype=numpy.int64) \
                - numpy.repeat(bounds[:-1], counts)
            seg = numpy.repeat(strides, counts)
            cycles = cycles + numpy.where(
                seg > 0, within // numpy.maximum(seg, 1),
                numpy.where(seg < 0, within, 0))
            if self.rle:
                reps = numpy.where(seg < 0, -seg, 1)
        return (cycles << PC_BITS) | values, reps

    def as_array(self):
        """The pending batch as a NumPy ``int64`` array (one C call).

        For ``cycle_pc`` events this reconstructs the packed
        ``(cycle << PC_BITS) | pc`` values from ``data`` + ``marks``,
        fully vectorised, in emission order — one entry per
        *occurrence* (RLE segments are expanded).
        """
        import numpy
        if self.marks is None:
            return numpy.fromiter(self.data, dtype=numpy.int64,
                                  count=len(self.data))
        packed, reps = self._packed_items()
        if reps is not None:
            packed = numpy.repeat(packed, reps)
        return packed

    def compact(self):
        """``(packed, occurrences)`` without RLE expansion.

        ``packed`` covers every distinct ``(cycle, pc)`` pair of the
        batch (possibly with duplicates, never expanding RLE runs), so
        any reduction that dedups per cycle — the sync-group
        consolidation — gets a bit-identical result from this cheaper
        form.  ``occurrences`` is the exact event count.
        """
        if self.marks is None:
            return self.as_array(), len(self.data)
        packed, reps = self._packed_items()
        count = len(self.data) if reps is None else int(reps.sum())
        return packed, count

    def clear(self) -> None:
        """Empty the ring in place (bound appends stay valid)."""
        self.data.clear()
        if self.marks is not None:
            self.marks.clear()
        self.rle = False


class ProbeBus:
    """Synchronous pub/sub hub for the platform's named probe events."""

    __slots__ = ("_subscribers", "_batch_subscribers", "_rings",
                 "_flush_hooks", "_sample_every", "_sample_seen", "now",
                 "window_cycles")

    def __init__(self):
        self._subscribers: dict[str, list] = {}
        self._batch_subscribers: dict[str, list] = {}
        self._rings: dict[str, EventRing] = {}
        self._flush_hooks: list = []
        self._sample_every: dict[str, int] = {}
        self._sample_seen: dict[str, int] = {}
        #: Telemetry window length in cycles (0 = windowing off).  Set
        #: by a :class:`~repro.obs.telemetry.WindowedAggregator` before
        #: the run; the run loops emit ``telemetry.window`` every time
        #: the committed-cycle count reaches a multiple of this value,
        #: and once more at the end of a run.
        self.window_cycles = 0
        #: Current 0-based cycle, maintained by the emitting run loop
        #: while the bus is :attr:`observed`.  Lets hooks that fire from
        #: deeper components (crossbars, MMUs) timestamp their events
        #: without threading the cycle through every call.
        self.now = 0

    # -- subscription ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when at least one subscriber is attached."""
        return bool(self._subscribers) or bool(self._batch_subscribers)

    @property
    def observed(self) -> bool:
        """True when a subscriber needs per-event delivery, i.e. listens
        to anything beyond :data:`SNAPSHOT_EVENTS`."""
        return bool(self._batch_subscribers) or any(
            event not in SNAPSHOT_EVENTS for event in self._subscribers)

    def wants(self, event: str) -> bool:
        """True when ``event`` has at least one subscriber."""
        return event in self._subscribers or event in self._batch_subscribers

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

    def subscribe_batch(self, event: str, drain):
        """Attach a batched subscriber; ``drain(ring)`` runs per flush.

        Only the hot events with a :data:`BATCH_COLUMNS` schema support
        batched delivery; subscribing a cold event raises.  Returns
        ``drain``.
        """
        if event not in EVENTS:
            raise ConfigurationError(
                f"unknown probe event {event!r}; expected one of "
                f"{sorted(EVENTS)}")
        if event not in BATCH_COLUMNS:
            raise ConfigurationError(
                f"event {event!r} has no batch schema; use per-event "
                f"subscription (batched events: {sorted(BATCH_COLUMNS)})")
        self._batch_subscribers.setdefault(event, []).append(drain)
        if event not in self._rings:
            self._rings[event] = EventRing(event)
        return drain

    def unsubscribe_batch(self, event: str, drain) -> None:
        """Detach a batched subscriber (flushes its last batch first)."""
        drains = self._batch_subscribers.get(event)
        if drains and drain in drains:
            self.flush()
            drains.remove(drain)
            if not drains:
                del self._batch_subscribers[event]
                del self._rings[event]

    def subscribe_flush(self, hook):
        """Call ``hook()`` after every flush that delivered a batch."""
        self._flush_hooks.append(hook)
        return hook

    def unsubscribe_flush(self, hook) -> None:
        if hook in self._flush_hooks:
            self._flush_hooks.remove(hook)

    def clear(self) -> None:
        """Detach every subscriber (per-event, batched and flush hooks)
        and drop sampling policies."""
        self._subscribers.clear()
        self._batch_subscribers.clear()
        self._rings.clear()
        self._flush_hooks.clear()
        self._sample_every.clear()
        self._sample_seen.clear()
        self.window_cycles = 0

    # -- sampling ----------------------------------------------------------

    def set_sampling(self, event: str, every: int) -> None:
        """Deliver only every ``every``-th occurrence of ``event``.

        The first occurrence is always delivered, then one per ``every``.
        The bus counts *all* occurrences routed through :meth:`emit`
        (see :meth:`occurrences`), so counters derived from a sampled
        event remain exact.  ``every=1`` removes the policy.  Emission
        sites route sampled events through :meth:`emit` (the raw-ring
        fast path is disabled by :meth:`batch`), so policies must be set
        before the run starts, like subscriptions.
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

    def batch(self, event: str):
        """The :class:`EventRing` for a raw-append fast path, or ``None``.

        The fast path applies only when every delivery obligation is a
        batch drain: at least one batch subscriber, no per-event
        subscriber and no sampling policy.  Emission sites that get a
        ring append the event's :data:`BATCH_COLUMNS` scalars straight
        to ``ring.data``; otherwise they fall back to :meth:`emit`,
        which still feeds the ring (packed from the full argument
        tuple) alongside per-event subscribers and sampling.
        """
        if event in self._subscribers or event in self._sample_every:
            return None
        return self._rings.get(event)

    def emit(self, event: str, *args) -> None:
        """Deliver ``event`` to its subscribers, in subscription order.

        Emitters are expected to guard this call with a pre-hoisted
        ``wants`` flag; calling it for an unsubscribed event is still
        correct, just not free.  Batch subscribers receive the event at
        the next :meth:`flush`; a sampling policy decimates delivery to
        both kinds of subscriber while counting every occurrence.
        """
        every = self._sample_every.get(event)
        if every is not None:
            seen = self._sample_seen[event]
            self._sample_seen[event] = seen + 1
            if seen % every:
                return
        for callback in self._subscribers.get(event, ()):
            callback(*args)
        ring = self._rings.get(event)
        if ring is not None:
            marks = ring.marks
            if marks is not None:
                cycle = args[0]
                if not marks or marks[-3] != cycle or marks[-1]:
                    marks.append(cycle)
                    marks.append(len(ring.data))
                    marks.append(0)
            ring.data.append(ring.pack(args))

    def flush(self) -> None:
        """Drain every non-empty ring through its batch subscribers.

        Run loops call this periodically (bounding ring memory) and once
        at the end of every run; collectors call it from ``finish()``.
        After all drains ran, registered flush hooks fire once — the
        point where a collector may consolidate columns that span
        several rings (e.g. retire + stall into the sync-group
        histogram).  A flush with nothing pending is a cheap no-op.
        """
        delivered = False
        for event, ring in self._rings.items():
            if ring.data:
                for drain in self._batch_subscribers[event]:
                    drain(ring)
                ring.clear()
                delivered = True
        if delivered:
            for hook in self._flush_hooks:
                hook()
