"""Golden-trace regression tests for the paper-reproduction outputs.

The tolerance-based checks in ``test_experiments.py`` verify we land
close to the *paper*; these tests pin our own reproduced numbers — Table
1 area, Table 2 dynamic power and the Fig. 5–8 design points — as JSON
fixtures, so any simulator or power-model change that silently shifts a
reproduced quantity fails tier-1 even while staying inside the paper
tolerances.  This is the safety net that let the fast-forward execution
mode land: a fast path that drifted any activity statistic would move
these numbers.

The comparison is exact for strings/integers and uses a tight relative
tolerance (``REL_TOL``) for floats, leaving room only for
platform-dependent floating-point rounding.

To regenerate after an *intentional* change::

    PYTHONPATH=src python tests/experiments/test_golden_numbers.py
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

import repro.platform.fast_forward as ff_engine
from repro.experiments import EXPERIMENTS
from repro.power import calibration

#: The pinned experiments: paper tables/figures built from simulation.
GOLDEN_IDS = ("table1", "table2", "fig5", "fig6", "fig7", "fig8")

#: Execution modes the golden numbers are pinned under.  All three must
#: reproduce the *same* fixtures bit-for-bit: the fast-forward engine
#: and its translation-block layer may only change wall-clock time,
#: never a reproduced quantity.
MODES = {
    "blocks": (True, True),      # (fast_forward, blocks)
    "noblocks": (True, False),   # the engine's test-only switch
    "exact": (False, True),
}

_active_mode: str | None = None


def _clear_reference_caches() -> None:
    calibration.verified_run.cache_clear()
    calibration._calibrated_set.cache_clear()


def _activate(mode: str) -> None:
    """Switch the translation-block constant for ``mode``.

    The engine is an argument of every experiment, so the reference
    caches keep one entry per engine; ``TRANSLATION_BLOCKS`` is not in
    their key, so the caches are cleared on entering ``noblocks`` (its
    runs must simulate) and on leaving it (its results must not serve
    later tests).
    """
    global _active_mode
    if mode == _active_mode:
        return
    if "noblocks" in (mode, _active_mode):
        _clear_reference_caches()
    ff_engine.TRANSLATION_BLOCKS = MODES[mode][1]
    _active_mode = mode


@pytest.fixture(scope="module", autouse=True)
def _restore_execution_mode():
    yield
    global _active_mode
    if _active_mode == "noblocks":
        _clear_reference_caches()
    ff_engine.TRANSLATION_BLOCKS = True
    _active_mode = None

#: Relative tolerance for float cells; everything else must match exactly.
REL_TOL = 1e-6

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(exp_id: str) -> pathlib.Path:
    return FIXTURE_DIR / f"golden_{exp_id}.json"


def snapshot(exp_id: str, fast_forward: bool = True) -> dict:
    """Run one experiment and reduce it to its JSON-serialisable core."""
    result = EXPERIMENTS[exp_id].run(fast_forward=fast_forward)
    return {
        "exp_id": result.exp_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "comparisons": [
            {"metric": c.metric, "paper": c.paper, "measured": c.measured}
            for c in result.comparisons
        ],
    }


def assert_cell_equal(golden, measured, where: str) -> None:
    if isinstance(golden, float) or isinstance(measured, float):
        assert math.isclose(float(golden), float(measured),
                            rel_tol=REL_TOL, abs_tol=1e-12), \
            f"{where}: golden {golden!r} != measured {measured!r}"
    else:
        assert golden == measured, \
            f"{where}: golden {golden!r} != measured {measured!r}"


#: Mode-major parameter order: each mode runs all experiments before
#: the next mode starts, so the expensive reference simulations happen
#: once per mode, not once per (mode, experiment) pair.
PARAMS = [(mode, exp_id) for mode in MODES for exp_id in GOLDEN_IDS]


@pytest.fixture(scope="module", params=PARAMS,
                ids=[f"{mode}-{exp_id}" for mode, exp_id in PARAMS])
def golden_and_current(request):
    mode, exp_id = request.param
    path = fixture_path(exp_id)
    assert path.is_file(), \
        f"missing fixture {path}; regenerate with " \
        "'PYTHONPATH=src python tests/experiments/test_golden_numbers.py'"
    with path.open(encoding="utf-8") as handle:
        golden = json.load(handle)
    _activate(mode)
    return exp_id, golden, snapshot(exp_id, fast_forward=MODES[mode][0])


class TestGoldenNumbers:
    def test_shape_pinned(self, golden_and_current):
        exp_id, golden, current = golden_and_current
        assert golden["exp_id"] == current["exp_id"] == exp_id
        assert golden["headers"] == current["headers"]
        assert len(golden["rows"]) == len(current["rows"])
        assert [c["metric"] for c in golden["comparisons"]] \
            == [c["metric"] for c in current["comparisons"]]

    def test_rows_pinned(self, golden_and_current):
        exp_id, golden, current = golden_and_current
        for row_i, (grow, crow) in enumerate(zip(golden["rows"],
                                                 current["rows"])):
            assert len(grow) == len(crow), f"{exp_id} row {row_i} width"
            for col_i, (gcell, ccell) in enumerate(zip(grow, crow)):
                assert_cell_equal(
                    gcell, ccell,
                    f"{exp_id} row {row_i} col {col_i}")

    def test_comparisons_pinned(self, golden_and_current):
        exp_id, golden, current = golden_and_current
        for gcomp, ccomp in zip(golden["comparisons"],
                                current["comparisons"]):
            where = f"{exp_id} comparison {gcomp['metric']!r}"
            assert_cell_equal(gcomp["paper"], ccomp["paper"],
                              where + " (paper)")
            assert_cell_equal(gcomp["measured"], ccomp["measured"],
                              where + " (measured)")


def regenerate() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for exp_id in GOLDEN_IDS:
        path = fixture_path(exp_id)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(snapshot(exp_id), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
