"""Cache keys and sweep digests across interpreter invocations.

The sweep cache is only useful if the key of a design point is the
same *in a different process* — different ``PYTHONHASHSEED``, different
dict/set iteration history.  The historical hazard is real: set
iteration order depends on the hash seed, and ``_canonical`` once fell
back to ``repr()`` for sets, which would have made every set-bearing
payload hash process-local.  These tests run actual subprocesses with
different hash seeds and require

* identical hashes for payloads containing sets, nested dicts in
  scrambled insertion orders, and mixed-type set elements;
* a cache written by one interpreter to be 100% hits in a second one
  (the acceptance criterion: a rerun re-evaluates zero points).
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_HASH_SCRIPT = """
import json
from repro.dse.cache import canonical_hash, point_key, simulation_key

payloads = {
    "set_of_strings": {"gamma", "alpha", "beta", "delta"},
    "frozen_mixed": frozenset([3, 1, 2]),
    "nested": {"z": {"names": {"b", "a"}}, "a": [1, {"k", "j"}]},
}
scrambled = dict(reversed(list(payloads.items())))
print(json.dumps({
    "canonical": canonical_hash(payloads),
    "canonical_scrambled": canonical_hash(scrambled),
    "point": point_key("dse-analytical/1",
                       {"arch": "ulpmc-int", "tags": {"x", "y"}}),
    "sim": simulation_key("dse-sim/1", {"arch": "mc-ref", "n_cores": 8}),
}))
"""

_SWEEP_SCRIPT = """
import json, sys
from repro.dse import build_space, run_dse

points, _ = build_space(arches=("ulpmc-int",), cores=(8,), im_banks=(8,),
                        dm_banks=(16,), mappings=("private-lut",),
                        voltages=(1.2, 0.8))
result = run_dse(points, cache_dir=sys.argv[1], escalate=False,
                 fast_forward=True)
print(json.dumps({
    "digest": result.digest(),
    "evaluated": result.counters["analytical_evaluated"],
    "hits": result.counters["analytical_cache_hits"],
    "hashes": sorted(record["point_hash"] for record in result.records),
}))
"""


def _run(script, seed, *args):
    env = dict(os.environ, PYTHONHASHSEED=str(seed),
               PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    completed = subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(completed.stdout.splitlines()[-1])


def test_hashes_identical_across_hash_seeds():
    first = _run(_HASH_SCRIPT, 1)
    second = _run(_HASH_SCRIPT, 4242)
    assert first == second
    # Insertion order of the top-level dict is invisible too.
    assert first["canonical"] == first["canonical_scrambled"]


def test_cache_written_by_one_interpreter_is_hits_in_another(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = _run(_SWEEP_SCRIPT, 7, cache_dir)
    second = _run(_SWEEP_SCRIPT, 9001, cache_dir)
    assert first["evaluated"] == 2
    assert second["evaluated"] == 0      # the acceptance criterion
    assert second["hits"] == 2
    assert second["digest"] == first["digest"]
    assert second["hashes"] == first["hashes"]
