"""End-to-end benchmark: one command per workload (see README.md).

    PYTHONPATH=src python -m benchmarks.e2e lockstep [--seed N] [--trace]
    python3 benchmarks/e2e/run.py --workload fleet --seed 7 --seconds 20
    python -m benchmarks.e2e --repeat 5      # spread over fresh processes

An untraced run sets up ``SETUP_REPEATS`` times from cold caches, then
repeats rounds of the workload for ``--seconds`` and reports medians.
A traced run (``--trace``) sets up once, runs each round of one pass
over every input untraced and then traced, and reports the per-layer
metrics (farm workloads then also run their jobs in process).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro import farm, kernels, platform, resilience
from repro.obs import git_revision
from repro.tamarisc import blocks, dispatch

from .tracer import Tracer
from .workloads import (TIER_KEYS, WORKLOADS, clear_all_caches,
                        engine_tiers, farm_workers, usable_cpus)

#: Interpreter start of the harness through importing the simulator.
IMPORT_S = time.perf_counter() - _STARTED

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXPECTED_PATH = pathlib.Path(__file__).with_name("expected.json")
RUN_SCRIPT = pathlib.Path(__file__).with_name("run.py")
TRACE_DIR = ROOT / "runs" / "bench"
DEFAULT_SEED = 2012
#: Cold set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Fewest timed rounds a median is taken over.
MIN_ROUNDS = 3
SCHEMA = "bench-e2e/1"


def _annotate_tiers(span, args, result) -> None:
    span.args.update(engine_tiers(args[0], result.stats))


def trace_targets() -> list[tuple]:
    """``(owner, attribute, span name, after)`` for every traced call."""
    return [
        (kernels, "build_benchmark", "kernels.build", None),
        (kernels, "build_block_series", "kernels.build", None),
        (kernels, "verify_result", "kernels.verify", None),
        (platform, "program_artifacts", "tamarisc.decode", None),
        (dispatch, "compile_program", "tamarisc.decode", None),
        (platform, "build_platform", "platform.build", None),
        (platform.MultiCoreSystem, "load", "platform.load", None),
        (platform.MultiCoreSystem, "run", "platform.run", _annotate_tiers),
        (farm, "run_farm", "farm.run_farm", None),
        (farm, "execute_job", "farm.execute_job", None),
        (farm.FleetResult, "fleet_summary", "farm.merge", None),
        (resilience, "run_campaign", "resilience.run_campaign", None),
        (resilience, "golden_run", "resilience.golden", None),
        (resilience, "execute_trial", "resilience.trial", None),
        (resilience.CampaignResult, "digest", "farm.merge", None),
    ]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # Linux reports KiB


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "farm_workers": farm_workers(),
        "python": sys.version.split()[0],
        "git_rev": git_revision(cwd=ROOT),
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_round(workload, state, index: int, mark=lambda job: None):
    started = time.perf_counter()
    result = workload.round(state, index, mark)
    result.wall_s = time.perf_counter() - started
    return result


def timed_rounds(workload, state, seconds: float) -> list:
    """Rounds until the next one would overrun ``seconds``, covering
    every input at least once and never fewer than ``MIN_ROUNDS``."""
    floor = max(MIN_ROUNDS, workload.rounds_per_pass(state))
    started = time.perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(workload, state, len(rounds)))
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r in rounds)
        if len(rounds) >= floor and elapsed + typical > seconds:
            return rounds


def check_outputs(workload, rounds, expected) -> tuple:
    """``(attempted, failed, pin, problems)``.  Outputs that change
    between rounds or differ from ``expected`` fail every job."""
    attempted = sum(r.jobs for r in rounds)
    failed = sum(r.failed for r in rounds)
    digests, problems = {}, []
    for r in rounds:
        for key, value in r.digests.items():
            if digests.setdefault(key, value) != value:
                problems.append(f"{key}: output changed between rounds")
    pin = workload.pin(digests)
    if expected is not None and expected != pin:
        problems.append(f"outputs differ from {EXPECTED_PATH.name}: "
                        f"expected {expected}, got {pin}")
    if problems:
        failed = attempted
    return attempted, failed, pin, problems


def measure(workload, seed: int, seconds: float, size: str) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        clear_all_caches()
        started = time.perf_counter()
        state = workload.setup(seed, size)
        setups.append(time.perf_counter() - started)
    rounds = timed_rounds(workload, state, seconds)
    return {
        "rounds": rounds,
        "setups_s": setups,
        "metrics": {
            "setup_s": IMPORT_S + statistics.median(setups),
            "jobs_per_s": statistics.median(
                (r.jobs - r.failed) / r.wall_s for r in rounds),
            "sim_mcycles_per_s": statistics.median(
                r.cycles / r.wall_s / 1e6 for r in rounds),
            "peak_rss_mb": peak_rss_mb(),
        },
    }


def span_metrics(tracer: Tracer) -> dict:
    """Per-layer times and engine-tier counts from the recorded spans."""
    own = tracer.self_by_name()
    runs = [(span, seconds) for span, seconds
            in zip(tracer.spans, tracer.self_times())
            if span.name == "platform.run"]
    finished = [(span.args["cycles"], seconds) for span, seconds in runs
                if "cycles" in span.args]
    run_s = sum(seconds for _, seconds in finished)
    metrics = {
        "kernels.build_s": sum(own["kernels.build"]),
        "kernels.verify_s": sum(own["kernels.verify"]),
        "tamarisc.decode_s": sum(own["tamarisc.decode"]),
        "platform.build_s": sum(own["platform.build"]),
        "platform.load_s": sum(own["platform.load"]),
        "platform.run_s": sum(own["platform.run"]),
        "platform.run_s_p50": statistics.median(own["platform.run"])
        if runs else 0.0,
        "platform.runs": len(runs),
        "platform.run_mcycles_per_s": sum(c for c, _ in finished)
        / run_s / 1e6 if run_s else 0.0,
        "farm.merge_s": sum(own["farm.merge"]),
        # whole golden runs (build, load, run), not the cache lookup
        "resilience.golden_s": sum(span.duration_s for span in tracer.spans
                                   if span.name == "resilience.golden"),
    }
    for key in TIER_KEYS:
        metrics[f"platform.{key}"] = sum(span.args.get(key, 0)
                                         for span, _ in runs)
    return metrics


def measure_traced(workload, seed: int, size: str) -> dict:
    tracer = Tracer()
    targets = trace_targets()
    clear_all_caches()
    cache_before = blocks.cache_stats()
    walls = {}

    started = time.perf_counter()
    tracer.mark("setup")
    with tracer.installed(targets), tracer.span("bench.setup"):
        state = workload.setup(seed, size)
    walls["setup"] = time.perf_counter() - started

    # Each traced round follows the same round untraced, so the pair
    # meets the same machine load and their ratio is the tracing overhead;
    # a first, unmeasured round leaves both sides the same warm caches.
    warm = run_round(workload, state, 0)
    reference, traced = [], []
    walls["round"] = 0.0
    for index in range(workload.rounds_per_pass(state)):
        reference.append(run_round(workload, state, index))
        started = time.perf_counter()
        with tracer.installed(targets), tracer.span("bench.round"):
            traced.append(run_round(workload, state, index, tracer.mark))
        walls["round"] += time.perf_counter() - started

    started = time.perf_counter()
    with tracer.installed(targets), tracer.span("bench.extras"):
        extras = workload.trace_extras(state, tracer.mark)
    walls["extras"] = time.perf_counter() - started

    cache = {key: value - cache_before.get(key, 0)
             for key, value in blocks.cache_stats().items()}
    lookups = cache["block_hits"] + cache["block_misses"]
    layers = span_metrics(tracer)
    layers.update(workload.layer_metrics(traced, extras))
    layers["tamarisc.block_compiles"] = cache["source_compiles"]
    layers["tamarisc.block_cache_hit_rate"] = \
        cache["block_hits"] / lookups if lookups else 0.0

    def rate(rounds):
        return sum(r.jobs - r.failed for r in rounds) \
            / sum(r.wall_s for r in rounds)

    untraced_rate, traced_rate = rate(reference), rate(traced)
    return {
        "rounds": [warm] + reference + traced,
        "extra_jobs": len(extras or ()),
        "tracer": tracer,
        "walls": walls,
        "per_layer": layers,
        "overhead": {
            "untraced_jobs_per_s": untraced_rate,
            "traced_jobs_per_s": traced_rate,
            "fraction": untraced_rate / traced_rate - 1.0,
        },
    }


def report_trace(name: str, outcome: dict) -> str:
    tracer, walls = outcome["tracer"], outcome["walls"]
    by_layer = tracer.self_by_layer()
    layer_names = sorted({layer for _, layer in by_layer})
    traced_wall = sum(walls.values())
    print(f"{'self time [s]':<14}"
          + "".join(f"{phase:>10}" for phase in walls)
          + f"{'total':>10}{'share':>8}")
    for layer in layer_names:
        row = [by_layer.get((f"bench.{phase}", layer), 0.0)
               for phase in walls]
        print(f"{layer:<14}" + "".join(f"{v:>10.3f}" for v in row)
              + f"{sum(row):>10.3f}{sum(row) / traced_wall:>8.1%}")
    self_sum = sum(by_layer.values())
    print(f"span self times sum to {self_sum:.3f} s of {traced_wall:.3f} s "
          f"traced wall ({self_sum / traced_wall:.2%})")
    overhead = outcome["overhead"]
    print(f"tracing overhead {overhead['fraction']:+.2%}: "
          f"{overhead['untraced_jobs_per_s']:.3f} jobs/s untraced vs "
          f"{overhead['traced_jobs_per_s']:.3f} traced")
    layers = outcome["per_layer"]
    cycles = layers["platform.cycles"] or 1
    print("engine tiers: " + ", ".join(
        f"{key[:-7]} {layers[f'platform.{key}'] / cycles:.1%}"
        for key in ("exact_cycles", "ff_cycles", "block_cycles",
                    "trace_cycles"))
        + f" of {layers['platform.cycles']} cycles")
    path = TRACE_DIR / f"trace-{name}.json"
    tracer.write_chrome(path)
    print(f"wrote {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return str(path.relative_to(ROOT))


def emit(values: dict, declared: list) -> dict:
    """Values in ``BENCHMARK.json`` order, each with its declared unit."""
    names = [entry["name"] for entry in declared]
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {entry["name"]: {"value": values[entry["name"]],
                            "unit": entry["unit"]} for entry in declared}


def run(name: str, *, seed: int = DEFAULT_SEED, seconds: float | None = None,
        trace: bool = False, size: str = "full",
        update_expected: bool = False) -> dict:
    """Run one workload and return its full record."""
    workload = WORKLOADS[name]
    seconds = BENCH["run_seconds"] if seconds is None else seconds
    expected_all = load_expected()
    expected = None if update_expected else \
        expected_all.get(name, {}).get(size, {}).get(str(seed))
    env = environment()
    print(f"{name} seed={seed} size={size} trace={int(trace)} "
          f"nproc={env['nproc']} usable={env['usable_cpus']} "
          f"workers={env['farm_workers']} python={env['python']} "
          f"git={env['git_rev'][:12]}")

    if trace:
        outcome = measure_traced(workload, seed, size)
    else:
        outcome = measure(workload, seed, seconds, size)
    rounds = outcome["rounds"]
    attempted, failed, pin, problems = check_outputs(workload, rounds,
                                                     expected)
    attempted += outcome.get("extra_jobs", 0)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)

    record = {
        "schema": SCHEMA, "workload": name, "seed": seed, "size": size,
        "trace": bool(trace), "seconds": seconds, "env": env,
        "rounds": len(rounds),
        "round_wall_s": [r.wall_s for r in rounds],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "correct": failed == 0,
        "pinned": pin,
        "expected": "none" if expected is None else
        ("match" if expected == pin else "mismatch"),
    }
    if trace:
        record["per_layer"] = outcome["per_layer"]
        record["overhead"] = outcome["overhead"]
        record["trace_walls_s"] = outcome["walls"]
        record["trace_file"] = report_trace(name, outcome)
        record["metrics"] = emit(outcome["per_layer"], BENCH["per_layer"])
    else:
        record["setups_s"] = outcome["setups_s"]
        record["metrics"] = emit(outcome["metrics"], BENCH["end_to_end"])

    width = max(len(metric) for metric in record["metrics"])
    for metric, body in record["metrics"].items():
        print(f"{metric:<{width}} {body['value']:>14.6g} {body['unit']}")
    print(f"{'failed_frac':<{width}} {record['failed_frac']:>14.6g} "
          f"fraction ({failed}/{attempted} jobs, {len(rounds)} rounds, "
          f"expected {record['expected']})")

    if update_expected and record["correct"]:
        expected_all.setdefault(name, {}).setdefault(size, {})[str(seed)] = pin
        with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
            json.dump(expected_all, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {EXPECTED_PATH.name}")
    return record


def repeat(names, count: int, *, seed: int, seconds: float,
           smoke: bool) -> int:
    """Each workload ``count`` times in fresh processes (seeds ``seed``,
    ``seed + 1`` ...), alternating the workload order; flags every
    end-to-end metric whose quartile spread exceeds its bound."""
    values = {name: defaultdict(list) for name in names}
    bad = []
    for index in range(count):
        for name in names if index % 2 == 0 else names[::-1]:
            command = [sys.executable, str(RUN_SCRIPT), "--workload", name,
                       "--seed", str(seed + index), "--seconds", str(seconds),
                       "--trace", "0"] + (["--smoke"] if smoke else [])
            started = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            elapsed = time.perf_counter() - started
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            if proc.returncode or result is None or not result["correct"]:
                bad.append(f"{name} seed {seed + index}")
                sys.stderr.write(proc.stderr[-2000:])
                continue
            for metric, body in result["metrics"].items():
                values[name][metric].append(body["value"])
            values[name]["failed_frac"].append(
                result["failed"] / result["attempted"])
            print(f"  {name} seed {seed + index} ({elapsed:.1f} s): "
                  + ", ".join(f"{metric}={body['value']:.4g}" for metric, body
                              in result["metrics"].items()), flush=True)

    bounds = {entry["name"]: entry["bound"] for entry in BENCH["end_to_end"]}
    flagged = []
    summary = {}
    print(f"{'workload':<9} {'metric':<18} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}")
    for name in names:
        for metric, series in values[name].items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) \
                if len(series) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(metric)
            flag = (bound is not None and spread > bound) or \
                (metric == "failed_frac" and median > 0)
            if flag:
                flagged.append(f"{name}.{metric}")
            summary[f"{name}.{metric}"] = {"median": median, "q1": q1,
                                           "q3": q3, "spread": spread}
            print(f"{name:<9} {metric:<18} {median:>10.4g} {q1:>10.4g} "
                  f"{q3:>10.4g} {spread:>7.2%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6}"
                  f"{'  FLAG' if flag else ''}")
    print(json.dumps({"repeat": count, "failed_runs": bad,
                      "flagged": flagged, "summary": summary}))
    return 1 if bad or flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="end-to-end benchmark of the simulator")
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--workload", dest="workload_option",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced run: per-layer metrics and a trace file")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the harness self-tests")
    parser.add_argument("--json", type=pathlib.Path, metavar="PATH",
                        help="also write the full record here")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="run every (or the named) workload N times in "
                             "fresh processes and report the spread")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite this run's expected.json entry "
                             "(benchmark changes only)")
    args = parser.parse_args(argv)
    name = args.workload_option or args.workload

    if args.repeat:
        names = [name] if name else [entry["name"]
                                     for entry in BENCH["workloads"]]
        return repeat(names, args.repeat, seed=args.seed,
                      seconds=args.seconds, smoke=args.smoke)
    if name is None:
        parser.error("name a workload (or use --repeat)")

    record = run(name, seed=args.seed, seconds=args.seconds,
                 trace=bool(args.trace),
                 size="smoke" if args.smoke else "full",
                 update_expected=args.update_expected)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1
