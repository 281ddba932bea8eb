"""Metrics registry: counters, gauges and histograms of a run.

:class:`MetricsRegistry` is a small name-spaced store of metric
primitives.  :class:`ProbeMetrics` hangs a sink on a
:class:`~repro.obs.probes.ProbeBus` (its ``metrics`` attribute) into
which the run loops fold the quantities the aggregate
:class:`~repro.platform.stats.SimulationStats` cannot express:

* ``sync_group_size`` — per-cycle number of distinct PCs among running
  cores (1 = full lockstep, the precondition for instruction broadcast);
* ``conflict_burst_length`` — lengths of runs of consecutive cycles that
  contained at least one crossbar conflict (clustered conflicts starve
  the same cores repeatedly; uniformly sprinkled ones are benign);
* ``im_broadcast_width`` / ``dm_broadcast_width`` — how many cores each
  broadcast actually served.

The sink is not a per-event subscriber, so a profiled run keeps the
fast-forward engine's blocks and loop traces: they add their lockstep
cycles as constants.

The registry *subsumes* ``SimulationStats``:
:meth:`MetricsRegistry.update_from_stats` imports every scalar field as
a counter, and :meth:`ProbeMetrics.verify_against` reconciles the
histogram totals with the simulator's own accounting — the check the
test-suite and ``repro profile`` rely on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    help: str = ""
    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """Last-written value."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


@dataclass
class Histogram:
    """Exact integer-valued histogram (one bucket per observed value)."""

    name: str
    help: str = ""
    counts: dict = field(default_factory=dict)

    def observe(self, value: int, weight: int = 1) -> None:
        self.counts[value] = self.counts.get(value, 0) + weight

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        return sum(value * count for value, count in self.counts.items())

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    @property
    def min(self):
        return min(self.counts) if self.counts else None

    @property
    def max(self):
        return max(self.counts) if self.counts else None

    def percentile(self, fraction: float):
        """Smallest observed value covering ``fraction`` of observations."""
        count = self.count
        if not count:
            return None
        threshold = fraction * count
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= threshold:
                return value
        return max(self.counts)

    def buckets(self) -> list[tuple[int, int]]:
        return sorted(self.counts.items())


class MetricsRegistry:
    """Get-or-create store of named metrics."""

    def __init__(self):
        self._metrics: dict[str, object] = {}

    def _get_or_create(self, name: str, cls, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name=name, help=help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help)

    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return list(self._metrics)

    def update_from_stats(self, stats, prefix: str = "sim.") -> None:
        """Import every scalar ``SimulationStats`` field as a counter.

        Derived totals (``total_retired``, ``total_stall_cycles``) come
        in too, so the registry alone carries everything the power model
        reads from the stats object.
        """
        for f in dataclasses.fields(stats):
            value = getattr(stats, f.name)
            if isinstance(value, int):
                counter = self.counter(prefix + f.name)
                counter.value = value
        self.counter(prefix + "total_retired").value = stats.total_retired
        self.counter(prefix + "total_stall_cycles").value = \
            stats.total_stall_cycles

    def snapshot(self) -> dict:
        """JSON-friendly dump: name -> value (histograms -> summary)."""
        out = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[name] = {
                    "count": metric.count,
                    "total": metric.total,
                    "mean": metric.mean,
                    "min": metric.min,
                    "max": metric.max,
                    "buckets": {str(value): count
                                for value, count in metric.buckets()},
                }
            else:
                out[name] = metric.value
        return out

    def render(self) -> str:
        """Human-readable multi-line dump, histograms as bucket bars."""
        lines = []
        scalars = [(name, metric) for name, metric in self._metrics.items()
                   if not isinstance(metric, Histogram)]
        histograms = [(name, metric) for name, metric
                      in self._metrics.items()
                      if isinstance(metric, Histogram)]
        if scalars:
            width = max(len(name) for name, _ in scalars)
            for name, metric in scalars:
                lines.append(f"{name:<{width}} : {metric.value}")
        for name, metric in histograms:
            lines.append(f"{name} (n={metric.count}, mean={metric.mean:.2f},"
                         f" max={metric.max}):")
            peak = max(metric.counts.values()) if metric.counts else 1
            for value, count in metric.buckets():
                bar = "#" * max(1, round(40 * count / peak))
                lines.append(f"  {value:>6} | {count:>8} {bar}")
        return "\n".join(lines)


class ProbeMetrics:
    """The metrics sink of one bus, and the registry it fills.

    Attach with :meth:`attach` (or construct and call :meth:`subscribe`)
    before the run; the run loops fold the four histograms directly and
    close every run's trailing conflict burst, so the registry is
    complete when :meth:`~repro.platform.multicore.MultiCoreSystem.run`
    returns.  The sink's only event subscription is the snapshot event
    ``block.done`` (``probe.blocks_done``), so it never makes a run
    observed.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        self.blocks = reg.counter(
            "probe.blocks_done", "streamed blocks completed")
        self.sync_groups = reg.histogram(
            "sync_group_size",
            "per-cycle distinct PCs among running cores (1 = lockstep)")
        self.conflict_bursts = reg.histogram(
            "conflict_burst_length",
            "lengths of consecutive-cycle conflict runs")
        self.im_bc_width = reg.histogram(
            "im_broadcast_width", "cores served per IM broadcast")
        self.dm_bc_width = reg.histogram(
            "dm_broadcast_width", "cores served per DM broadcast")
        self._bus = None

    # -- wiring ------------------------------------------------------------

    @classmethod
    def attach(cls, bus,
               registry: MetricsRegistry | None = None) -> "ProbeMetrics":
        collector = cls(registry)
        collector.subscribe(bus)
        return collector

    def subscribe(self, bus) -> None:
        if bus.metrics is not None:
            raise ConfigurationError("the probe bus already has a metrics "
                                     "sink; detach it first")
        bus.metrics = (self.sync_groups.counts, self.conflict_bursts.counts,
                       self.im_bc_width.counts, self.dm_bc_width.counts)
        bus.subscribe("block.done", self._on_block)
        self._bus = bus

    def detach(self) -> None:
        if self._bus is not None:
            self._bus.unsubscribe("block.done", self._on_block)
            self._bus.metrics = None
            self._bus = None

    def _on_block(self, index, stats) -> None:
        self.blocks.inc()

    # -- reconciliation ----------------------------------------------------

    def verify_against(self, stats) -> list[tuple[str, int, int]]:
        """Reconcile the histogram totals of one run with its stats.

        One sync group per cycle; at least one size-1 group per
        lockstep cycle (``sync_cycles`` leaves out cycles with a single
        running core); one width entry per broadcast, and the widths
        minus one sum to the broadcast savings.  Returns the list of
        ``(name, metric_value, stats_value)`` mismatches — empty when
        the fold and the simulator's own accounting agree.
        """
        im, dm = self.im_bc_width, self.dm_bc_width
        checks = [
            ("sync_groups", self.sync_groups.count, stats.total_cycles),
            ("im_broadcasts", im.count, stats.im_broadcasts),
            ("dm_broadcasts", dm.count, stats.dm_broadcasts),
            ("im_broadcast_savings", im.total - im.count,
             stats.im_broadcast_savings),
            ("dm_broadcast_savings", dm.total - dm.count,
             stats.dm_broadcast_savings),
        ]
        mismatches = [(name, metric, reference)
                      for name, metric, reference in checks
                      if metric != reference]
        lockstep = self.sync_groups.counts.get(1, 0)
        if lockstep < stats.sync_cycles:
            mismatches.append(("lockstep_groups", lockstep,
                               stats.sync_cycles))
        return mismatches
