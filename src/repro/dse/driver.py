"""The sweep driver: rank analytically, escalate the front, record it.

One :func:`run_dse` call

1. evaluates every design point with the analytical model — cache
   first, so a re-run over an unchanged space computes nothing;
2. extracts the Pareto front over (energy/sample, -throughput, area);
3. escalates the front's *structural families* (node/voltage variants
   share one simulation) to cycle-accurate runs on the farm scheduler,
   within an explicit budget (default 15 % of the sweep — the
   acceptance bar for "only the frontier simulates");
4. measures analytical-vs-simulated fidelity (cycle error per family,
   Spearman rank agreement of the energy ordering);
5. reduces everything to a deterministic front payload whose digest
   lands in a ``dse`` manifest record, and a ``pareto_front.json``
   artifact for humans and `repro regress`.

The digested payload excludes wall times and cache counters by
construction: a cold sweep and a fully-cached re-run must produce the
same digest, or the regression gate could never consume dse records.
"""

from __future__ import annotations

import dataclasses
import pathlib
import time

from repro.dse.cache import (SweepCache, canonical_hash, point_key,
                             simulation_key)
from repro.dse.escalate import (SIM_VERSION, run_escalations, spec_for,
                                stats_from_canonical)
from repro.dse.model import MODEL_VERSION, AnalyticalModel, objectives
from repro.dse.pareto import pareto_front
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError

#: Schema tag of the Pareto-front artifact / digested payload.
FRONT_SCHEMA = "repro-dse-front/1"

#: Default escalation budget as a fraction of the sweep size.
ESCALATION_BUDGET = 0.15

ARTIFACT_NAME = "pareto_front.json"


@dataclasses.dataclass
class DseResult:
    """Everything one sweep produced."""

    sweep: dict                  #: deterministic sweep identity
    records: list                #: one dict per point (metrics, flags)
    front: list                  #: the non-dominated records
    escalations: dict            #: structural_hash -> escalation dict
    fidelity: dict
    counters: dict
    wall_time_s: float = 0.0
    fast_forward: bool = True    #: engine of the simulations behind it

    def front_payload(self) -> dict:
        """The digested, run-independent description of the outcome."""
        return {
            "schema": FRONT_SCHEMA,
            "sweep": self.sweep,
            "front": [
                {"point": record["point"],
                 "metrics": record["metrics"],
                 "objectives": list(record["objectives"])}
                for record in self.front],
            "escalations": [
                {"structure": esc["structure"],
                 "sim_digest": esc["sim_digest"],
                 "total_cycles": esc["total_cycles"],
                 "predicted_cycles": esc["predicted_cycles"],
                 "cycle_rel_error": esc["cycle_rel_error"]}
                for esc in sorted(self.escalations.values(),
                                  key=lambda esc: esc["sim_digest"])],
            "fidelity": self.fidelity,
        }

    def digest(self) -> str:
        return canonical_hash(self.front_payload())

    def artifact(self) -> dict:
        """The ``pareto_front.json`` document (payload + provenance)."""
        document = self.front_payload()
        document.update(
            digest=self.digest(),
            counters=self.counters,
            wall_time_s=self.wall_time_s,
        )
        return document


def _ranks(values) -> list[float]:
    """Average ranks (1-based) of ``values``, ties shared."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) \
                and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def rank_correlation(xs, ys) -> float | None:
    """Spearman rank correlation; ``None`` when undefined (< 2 points
    or a constant side)."""
    if len(xs) != len(ys):
        raise ValueError("rank correlation needs paired samples")
    n = len(xs)
    if n < 2:
        return None
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        return None
    return cov / (vx * vy) ** 0.5


def sweep_identity(points) -> dict:
    """The stable identity of a sweep: space digest + model versions.

    This is what lands in the manifest's ``config`` slot, so reruns of
    the same space at any later time fall into the same regress group.
    """
    return {
        "schema": FRONT_SCHEMA,
        "model": MODEL_VERSION,
        "sim": SIM_VERSION,
        "points": len(points),
        "space_digest": canonical_hash(
            [point.payload() for point in points]),
    }


def run_dse(points, *, cache_dir=None, escalate: bool = True,
            escalate_policy: str = "front", max_escalations=None,
            workers: int = 1, fast_forward: bool = True, model=None,
            log=None) -> DseResult:
    """Sweep ``points``; see the module docstring for the pipeline."""
    if escalate_policy not in ("front", "all"):
        raise ValueError(
            f"unknown escalation policy {escalate_policy!r}")
    if max_escalations is not None and max_escalations < 0:
        raise ConfigurationError(
            f"escalation budget must be >= 0, got {max_escalations}")
    log = log if log is not None else (lambda message: None)
    started = time.perf_counter()
    model = model if model is not None \
        else AnalyticalModel(fast_forward=fast_forward)
    cache = SweepCache(cache_dir)

    # 1. analytical pass, cache first ---------------------------------------
    records = []
    evaluated = 0
    for point in points:
        payload = point.payload()
        key = point_key(MODEL_VERSION, payload)
        metrics = cache.get(key)
        cached = metrics is not None
        if not cached:
            metrics = model.evaluate(point)
            cache.put(key, metrics)
            evaluated += 1
        records.append({
            "point": payload,
            "point_hash": key,
            "structural_hash": simulation_key(
                SIM_VERSION, point.structural_payload()),
            "_point": point,
            "metrics": metrics,
            "objectives": objectives(metrics),
            "cached": cached,
        })
    analytical_hits = cache.hits
    log(f"analytical pass: {len(records)} points, "
        f"{evaluated} evaluated, {analytical_hits} cached")

    # 2. Pareto front -------------------------------------------------------
    front = pareto_front(records, key=lambda record: record["objectives"])
    front_keys = {record["point_hash"] for record in front}
    for record in records:
        record["on_front"] = record["point_hash"] in front_keys

    # 3. escalation ---------------------------------------------------------
    candidates = records if escalate_policy == "all" else front
    families: dict[str, dict] = {}
    for record in sorted(candidates,
                         key=lambda r: (r["objectives"],
                                        r["structural_hash"])):
        families.setdefault(record["structural_hash"], record)
    budget = max_escalations if max_escalations is not None \
        else max(1, int(ESCALATION_BUDGET * len(points)))
    selected = dict(list(families.items())[:budget])
    dropped = len(families) - len(selected)
    if dropped:
        log(f"escalation budget {budget}: dropping {dropped} of "
            f"{len(families)} frontier families (best-energy first)")

    escalations: dict[str, dict] = {}
    escalations_run = 0
    escalation_hits = 0
    if escalate and selected:
        to_run = {}
        for structural_hash, record in selected.items():
            cached = cache.get(structural_hash)
            if cached is not None:
                escalation_hits += 1
                escalations[structural_hash] = dict(cached, cached=True)
            else:
                to_run[structural_hash] = record
        if to_run:
            log(f"escalating {len(to_run)} structural families to "
                f"cycle-accurate simulation ({workers} worker(s))")
            specs = {
                structural_hash: spec_for(
                    record["_point"], fast_forward=fast_forward)
                for structural_hash, record in to_run.items()}
            results = run_escalations(specs, workers=workers)
            escalations_run = len(results)
            for structural_hash, sim in results.items():
                record = to_run[structural_hash]
                entry = {
                    "structure": record["_point"].structural_payload(),
                    "sim_digest": sim.stats_digest,
                    "total_cycles": sim.total_cycles,
                    "stats": sim.stats,
                    "wall_time_s": sim.wall_time_s,
                    "cached": False,
                }
                cache.put(structural_hash,
                          {key: value for key, value in entry.items()
                           if key not in ("cached", "wall_time_s")})
                escalations[structural_hash] = entry

    # 4. fidelity -----------------------------------------------------------
    predicted_energy = []
    simulated_energy = []
    cycle_errors = []
    for structural_hash, esc in escalations.items():
        record = families[structural_hash]
        reference = dataclasses.replace(record["_point"],
                                        tech_nm=90, voltage=1.2)
        predicted = model.evaluate(reference)
        sim_stats = stats_from_canonical(esc["stats"])
        simulated = model.metrics_from_stats(reference, sim_stats,
                                             source="simulated")
        esc["predicted_cycles"] = predicted["cycles_per_block"]
        esc["cycle_rel_error"] = abs(
            predicted["cycles_per_block"] - esc["total_cycles"]) \
            / esc["total_cycles"]
        esc["simulated_metrics"] = simulated
        predicted_energy.append(predicted["energy_per_sample_nj"])
        simulated_energy.append(simulated["energy_per_sample_nj"])
        cycle_errors.append(esc["cycle_rel_error"])
    fidelity = {
        "escalated_families": len(escalations),
        "rank_correlation": rank_correlation(predicted_energy,
                                             simulated_energy),
        "cycle_accuracy": 1.0 - (sum(cycle_errors) / len(cycle_errors)
                                 if cycle_errors else 0.0),
        "max_cycle_rel_error": max(cycle_errors, default=0.0),
    }

    counters = {
        "points": len(records),
        "structural_families": len({record["structural_hash"]
                                    for record in records}),
        "analytical_evaluated": evaluated,
        "analytical_cache_hits": analytical_hits,
        "front_size": len(front),
        "front_families": len(families) if escalate_policy == "front"
        else len({record["structural_hash"] for record in front}),
        "escalations_selected": len(selected) if escalate else 0,
        "escalations_run": escalations_run,
        "escalation_cache_hits": escalation_hits,
        "escalation_budget": budget,
        "cache": cache.counters(),
    }

    return DseResult(
        sweep=sweep_identity(points),
        records=records,
        front=front,
        escalations=escalations,
        fidelity=fidelity,
        counters=counters,
        wall_time_s=time.perf_counter() - started,
        fast_forward=fast_forward,
    )


def write_artifact(result: DseResult, path) -> pathlib.Path:
    """Write the ``pareto_front.json`` artifact; returns its path."""
    import json

    from repro.obs.manifest import _canonical

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(_canonical(result.artifact()), handle, indent=2,
                  sort_keys=True)
        handle.write("\n")
    return path


def dse_manifest_record(result: DseResult, name: str = "sweep") -> dict:
    """The ``dse`` manifest record for one sweep."""
    from repro.obs.manifest import manifest_record

    return manifest_record(
        "dse", name,
        config=result.sweep,
        stats_digest_value=result.digest(),
        stats_summary={
            "points": result.counters["points"],
            "front_size": result.counters["front_size"],
            "escalated_families":
                result.fidelity["escalated_families"],
        },
        wall_time_s=result.wall_time_s,
        extra={"counters": result.counters,
               "fidelity": result.fidelity,
               "fast_forward": result.fast_forward},
    )
