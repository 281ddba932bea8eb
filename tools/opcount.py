"""Opcode counter: the interpreter opcodes one simulation run executes.

Wall time on a shared host moves with its load; the number of bytecode
instructions a run executes does not.  This script counts them for one
:meth:`MultiCoreSystem.run <repro.platform.multicore.MultiCoreSystem.run>`
per configuration, after a warm-up run of the same configuration (so the
decode, handler and block caches are warm) and an uncounted ``load()``,
with ``sys.settrace`` and ``frame.f_trace_opcodes`` (Python 3.7+, no
dependency).  Counts repeat exactly from process to process, but differ
between Python minor versions, so the report names the version.  Work
done inside C calls (list copies, dict operations) does not count: a
speed claim still needs wall-clock pairs; the counts give its direction.

The default configurations are the eleven of EXPERIMENTS.md "One cycle
loop": the three architectures with private and shared Huffman LUTs,
and the broadcast ablations with shared LUTs.

Usage::

    python tools/opcount.py                           # 11 configs, 32x16
    python tools/opcount.py ulpmc-bank-no-instr-bc --engine default
    python tools/opcount.py --geometry 8x4 --json     # one JSON line each
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:  # direct script invocation
    sys.path.insert(0, str(_SRC))

from repro.errors import ReproError  # noqa: E402
from repro.kernels import BenchmarkSpec, build_benchmark  # noqa: E402
from repro.platform import build_platform  # noqa: E402

#: ``name -> (arch, overrides, huffman_private)``.
CONFIGS = {
    "mc-ref-private": ("mc-ref", {}, True),
    "mc-ref-shared": ("mc-ref", {}, False),
    "ulpmc-int-private": ("ulpmc-int", {}, True),
    "ulpmc-int-shared": ("ulpmc-int", {}, False),
    "ulpmc-bank-private": ("ulpmc-bank", {}, True),
    "ulpmc-bank-shared": ("ulpmc-bank", {}, False),
    "mc-ref-no-data-bc": ("mc-ref", {"data_broadcast": False}, False),
    "ulpmc-int-no-data-bc": ("ulpmc-int", {"data_broadcast": False}, False),
    "ulpmc-bank-no-data-bc": ("ulpmc-bank", {"data_broadcast": False},
                              False),
    "ulpmc-bank-no-instr-bc": ("ulpmc-bank", {"instr_broadcast": False},
                               False),
    "ulpmc-int-no-instr-bc": ("ulpmc-int", {"instr_broadcast": False},
                              False),
}

ENGINES = {"default": True, "exact": False}

#: The benchmark's input seed, named in every report: the opcode tables
#: of EXPERIMENTS.md are counted on it.
SEED = 12345


def count_opcodes(fn) -> int:
    """The opcodes ``fn()`` executes in Python frames."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    sys.settrace(call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def count_run(config: str, engine: str, samples: int,
              measurements: int) -> dict:
    """Count one run of ``config`` on ``engine`` after a warm-up run."""
    arch, overrides, private = CONFIGS[config]
    built = build_benchmark(BenchmarkSpec(
        n_samples=samples, n_measurements=measurements,
        huffman_private=private, seed=SEED))
    fast_forward = ENGINES[engine]
    build_platform(arch, fast_forward=fast_forward, **overrides).run(
        built.benchmark)
    system = build_platform(arch, fast_forward=fast_forward, **overrides)
    system.load(built.benchmark)
    results = []
    opcodes = count_opcodes(lambda: results.append(system.run()))
    cycles = results[0].stats.total_cycles
    return {"config": config, "engine": engine,
            "geometry": f"{samples}x{measurements}", "seed": SEED,
            "cycles": cycles, "opcodes": opcodes,
            "per_cycle": opcodes / cycles,
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="*", metavar="CONFIG",
                        help="configurations to count (default: all): "
                             + ", ".join(CONFIGS))
    parser.add_argument("--engine", choices=["both", *ENGINES],
                        default="both")
    parser.add_argument("--geometry", default="32x16", metavar="SxM",
                        help="samples x measurements (default 32x16)")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON record per count")
    args = parser.parse_args(argv)
    try:
        samples, measurements = (int(part)
                                 for part in args.geometry.split("x"))
    except ValueError:
        parser.error(f"--geometry {args.geometry!r} is not SxM")
    unknown = [name for name in args.configs if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown config(s): {', '.join(unknown)}")
    engines = list(ENGINES) if args.engine == "both" else [args.engine]
    if not args.json:
        print(f"Python {platform.python_version()}, {args.geometry}, "
              f"seed {SEED}")
        print(f"{'config':<24} {'engine':<8} {'cycles':>8} "
              f"{'opcodes':>12} {'per cycle':>9}")
    for config in args.configs or CONFIGS:
        for engine in engines:
            try:
                record = count_run(config, engine, samples, measurements)
            except ReproError as exc:
                parser.error(str(exc))
            if args.json:
                print(json.dumps(record, sort_keys=True), flush=True)
            else:
                print(f"{config:<24} {engine:<8} {record['cycles']:>8,} "
                      f"{record['opcodes']:>12,} "
                      f"{record['per_cycle']:>9,.0f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
