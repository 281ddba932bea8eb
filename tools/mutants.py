"""Mutation check: the equivalence tests must fail on broken code.

Every fast executor runs code generated from one set of templates
(``src/repro/tamarisc/dispatch.py``), so a test that compares two
executors passes when a template is wrong in both.  This script makes
sure the tests that guard the templates can fail.  Each :class:`Mutant`
is one source edit (``old`` must occur exactly once in its file); the
script applies it to a temporary copy of the repository and runs the
mutant's named test subset there (``PYTHONPATH`` at the copy's
``src/``).  The subset must fail.  A mutant that survives marks a hole
in the tests.

Usage::

    python tools/mutants.py                  # every mutant, its subset
    python tools/mutants.py --list
    python tools/mutants.py sub-carry-equal  # named mutants only
    python tools/mutants.py --tests tests    # whole of tier-1 instead

Before the mutants the unmutated copy must pass each subset.  Exit
status: 0 when every mutant is killed, 1 when one survives or its edit
no longer applies, 2 when the unmutated copy fails.  No dependency
beyond pytest and the test suite's own.

The cycle loop's serialised rounds re-implement the round-robin
schedule the crossbar resolves in ``--exact``, and the block and
loop-trace generator of ``src/repro/tamarisc/blocks.py`` adds its own
budget, flag-liveness and address-translation code around the
templates, so they get mutants of their own.  To cover another code
generator, append mutants to :data:`MUTANTS` with the subset that must
catch them.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Per-subset wall-clock cap: a mutant that makes a run loop spin ends
#: its run here and counts as killed (the timeout is reported).
RUN_TIMEOUT_S = 1200


@dataclass(frozen=True)
class Mutant:
    """One source edit and the tests that must fail on it."""

    name: str
    path: str             # relative to the repository root
    old: str
    new: str
    tests: tuple          # pytest arguments: paths or node ids


DISPATCH = "src/repro/tamarisc/dispatch.py"
#: The handler-level checks against the generic operand walk.
HANDLER_TESTS = ("tests/tamarisc/test_dispatch.py",)

MUTANTS = [
    # Dispatch templates (shared by handlers, blocks and loop traces).
    Mutant("sub-carry-equal", DISPATCH,
           'out.append(f"_f.c = {a} >= {b}")',
           'out.append(f"_f.c = {a} > {b}")', HANDLER_TESTS),
    Mutant("mul-overflow-boundary", DISPATCH,
           'out.append("_f.v = _t > 65535")',
           'out.append("_f.v = _t >= 65535")', HANDLER_TESTS),
    Mutant("source1-latch-dropped", DISPATCH,
           "if update and instr.s1mode == SrcMode.REG \\",
           "if False and instr.s1mode == SrcMode.REG \\", HANDLER_TESTS),
    Mutant("add-overflow-sign", DISPATCH,
           'f"_f.v = ~({a} ^ {b}) & ({a} ^ _res) & 32768 != 0"',
           'f"_f.v = ({a} ^ {b}) & ({a} ^ _res) & 32768 != 0"',
           HANDLER_TESTS),
    Mutant("srl-carry-bit", DISPATCH,
           'f"_f.c = ({a} >> {shift - 1}) & 1 != 0"',
           'f"_f.c = ({a} >> {shift}) & 1 != 0"', HANDLER_TESTS),
    Mutant("hi-without-z", DISPATCH,
           'Cond.HI: "_f.c and not _f.z",',
           'Cond.HI: "_f.c",', HANDLER_TESTS),
    Mutant("ge-as-gt", DISPATCH,
           'Cond.GE: "_f.n == _f.v",',
           'Cond.GE: "not _f.z and _f.n == _f.v",', HANDLER_TESTS),
    Mutant("predec-as-postdec", DISPATCH,
           "_SRC_PRE = frozenset({SrcMode.IND_PREINC, SrcMode.IND_PREDEC})",
           "_SRC_PRE = frozenset({SrcMode.IND_PREINC})", HANDLER_TESTS),
]

MULTICORE = "src/repro/platform/multicore.py"
#: The reference loop on serialised ulpmc-bank at 2, 3 and 5 cores.
ROUND_TESTS = ("tests/platform/test_reference_loop.py"
               "::test_serialised_rounds_off_paper_geometry",)

MUTANTS += [
    # Serialised rounds (the single-IM-bank round-robin schedule).
    Mutant("round-winner-stays", MULTICORE,
           "turn += 1\n                                stall += n_run - 1",
           "turn += 0\n                                stall += n_run - 1",
           ROUND_TESTS),
    Mutant("round-stalls-skipped", MULTICORE,
           "stall += n_run - 1", "stall += 0", ROUND_TESTS),
    Mutant("round-group-every-core", MULTICORE,
           "if fetch_pc[pid] == pc)", "if fetch_pc[pid] >= 0)",
           ROUND_TESTS),
]

BLOCKS = "src/repro/tamarisc/blocks.py"
#: A one-block loop's trace capped by a window edge or a fault, on
#: every architecture.
TRACE_BUDGET_TESTS = ("tests/platform/test_blocks_divergence.py"
                      "::TestLoopTraces"
                      "::test_one_block_loop_grows_one_arm_trace",)
#: A block cut short by an address fault, on every architecture.
FAULT_CUT_TESTS = ("tests/tamarisc/test_block_properties.py"
                   "::TestFusedExecution"
                   "::test_address_fault_keeps_the_flags_before_it",)
#: The ECG workload at paper geometry on both engines.
FULL_GEOMETRY_TESTS = ("tests/platform/test_fast_forward_differential.py"
                       "::TestECGWorkload::test_full_geometry",)

MUTANTS += [
    # Block and loop-trace code generation (repro.tamarisc.blocks).
    Mutant("trace-ignores-budget", BLOCKS,
           'w.add(L, f"if _j + {trace.max_period} > _maxj:")',
           'w.add(L, "if False:")', TRACE_BUDGET_TESTS),
    # Liveness without the memory positions' checkpoints: a flag store
    # overwritten by a later memory instruction looks dead.
    Mutant("block-flag-store-dropped", BLOCKS,
           "if t >= 1 and handlers[t].preview is not None}",
           "if t >= 1 and handlers[t].preview is None}", FAULT_CUT_TESTS),
    Mutant("block-private-bank-off-by-one", BLOCKS,
           'f"{bank} = _cb[_p][_o // {pwb}]"',
           'f"{bank} = _cb[_p][(_o + 1) // {pwb}]"', FULL_GEOMETRY_TESTS),
]

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                 ".pytest_cache", ".benchmarks", "runs",
                                 "*.egg-info")


def _run_tests(copy: pathlib.Path, tests) -> tuple[bool, str]:
    """Run ``tests`` in ``copy``; ``(passed, the first failure or the
    last output line)``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q",
               "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=copy, env=env, text=True,
                              capture_output=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {RUN_TIMEOUT_S} s"
    lines = (done.stdout + done.stderr).strip().splitlines() or [""]
    failures = [line for line in lines
                if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, (failures or lines)[-1][:110]


def _check_import(copy: pathlib.Path) -> None:
    """The copy's ``src/``, not an installed ``repro``, must load."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    found = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        cwd=copy, env=env, text=True, capture_output=True,
        check=True).stdout.strip()
    if not pathlib.Path(found).resolve().is_relative_to(copy.resolve()):
        raise SystemExit(f"mutants: repro imports from {found}, not the "
                         "temporary copy")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", metavar="MUTANT",
                        help="run only these mutants (default: all)")
    parser.add_argument("--list", action="store_true",
                        help="list the mutants and their test subsets")
    parser.add_argument("--tests", nargs="+", metavar="ARG", default=None,
                        help="run these pytest arguments for every "
                             "mutant instead of its own subset")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or MUTANTS
    if args.list:
        for mutant in chosen:
            print(f"{mutant.name:24s} {mutant.path}  "
                  f"{' '.join(mutant.tests)}")
        return 0

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        _check_import(copy)
        subsets = sorted({tuple(args.tests or mutant.tests)
                          for mutant in chosen})
        for tests in subsets:
            passed, last = _run_tests(copy, tests)
            if not passed:
                print(f"unmutated copy fails {' '.join(tests)}: {last}")
                return 2
        survivors = 0
        for mutant in chosen:
            target = copy / mutant.path
            original = target.read_text()
            if original.count(mutant.old) != 1:
                print(f"{mutant.name}: edit does not apply "
                      f"({original.count(mutant.old)} matches in "
                      f"{mutant.path})")
                survivors += 1
                continue
            target.write_text(original.replace(mutant.old, mutant.new))
            started = time.perf_counter()
            try:
                passed, last = _run_tests(copy, args.tests or mutant.tests)
            finally:
                target.write_text(original)
            verdict = "SURVIVED" if passed else "killed"
            survivors += passed
            print(f"{mutant.name:24s} {verdict:8s} "
                  f"{time.perf_counter() - started:6.1f} s  {last}",
                  flush=True)
    print(f"{len(chosen) - survivors}/{len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
