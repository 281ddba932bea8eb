"""Platform-wide observability: probe bus, metrics, traces, manifests.

The paper's methodology (Fig. 4) feeds *trace files* from the routed
design into power analysis; this package is the simulator's equivalent
measurement substrate.  It has four layers, each usable on its own:

* :mod:`repro.obs.probes` — a lightweight **probe bus** of the named
  events a shipped consumer reads (``core.retire``, ``core.stall``,
  ``ff.exit``, ``telemetry.window``, ``block.done``) emitted by the
  platform's cycle loop and the streaming driver.  With no subscriber attached the emission sites compile down
  to a handful of pre-hoisted boolean checks (<2 % overhead, enforced by
  ``benchmarks/bench_obs_overhead.py``).
* :mod:`repro.obs.metrics` — a **metrics registry** of counters, gauges
  and histograms, plus :class:`~repro.obs.metrics.ProbeMetrics`, the
  bus's metrics sink: the run loops fold conflict-burst-length,
  sync-group-size and broadcast-width histograms into it, and it
  reconciles their totals against
  :class:`~repro.platform.stats.SimulationStats`.
* :mod:`repro.obs.perfetto` — **Chrome trace-event / Perfetto JSON
  export**: one track per core (run/stall/halted slices), per-IM-bank
  power-gate state and fast-forward spans; the file opens directly in
  ``ui.perfetto.dev``.
* :mod:`repro.obs.manifest` — **run manifests**: append-only JSONL
  records (config hash, git revision, stats digest, wall time, event
  summary) written to ``runs/`` by the CLI and the benchmarks, giving
  every reported number a provenance trail.
* :mod:`repro.obs.regress` — **regression detection** over those
  manifests: group records by run identity, compare stats digests
  across git revisions (and within one revision, for nondeterminism)
  and render a pass/fail report — the engine behind ``repro regress``.
* :mod:`repro.obs.telemetry` — **streaming telemetry**: a
  :class:`~repro.obs.telemetry.WindowedAggregator` turns the run
  loops' window-edge counter snapshots into fixed-cycle-window rolling
  summaries (per-core IPC, stall/conflict/broadcast rates, lockstep
  fraction, deadline misses) live during a run, with a merge operation
  combining N aggregators into one fleet view — the engine behind
  ``repro watch`` and the manifest ``telemetry`` block.

Nothing in this package imports :mod:`repro.platform`, so the platform
modules can import the probe bus without cycles.
"""

from repro.errors import ConfigurationError
from repro.obs.manifest import (
    config_digest,
    git_revision,
    manifest_record,
    read_manifests,
    stats_digest,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProbeMetrics,
)
from repro.obs.perfetto import TraceRecorder
from repro.obs.probes import (
    EVENTS,
    METRIC_HISTOGRAMS,
    ProbeBus,
)
from repro.obs.regress import (
    Finding,
    RegressionReport,
    run_regression,
)
from repro.obs.telemetry import (
    WindowedAggregator,
    WindowSummary,
    merge_window_lists,
    summaries_digest,
)

__all__ = [
    "EVENTS",
    "METRIC_HISTOGRAMS",
    "ConfigurationError",
    "Finding",
    "ProbeBus",
    "RegressionReport",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProbeMetrics",
    "TraceRecorder",
    "WindowSummary",
    "WindowedAggregator",
    "config_digest",
    "git_revision",
    "manifest_record",
    "merge_window_lists",
    "read_manifests",
    "run_regression",
    "stats_digest",
    "summaries_digest",
    "write_manifest",
]
