"""``tools/opcount.py``: opcode counts are deterministic.

The counts decide the direction of speed changes that wall time on a
shared host cannot settle, so they must repeat exactly from one fresh
interpreter to the next (string hashing differs between the two).
"""

import json
import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "opcount.py"


def _count(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(TOOL), "ulpmc-bank-no-instr-bc", "--engine",
         "default", "--geometry", "24x12", "--json"],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(done.stdout)


def test_counts_repeat_in_fresh_processes():
    first, second = _count("1"), _count("2")
    assert first["cycles"] == second["cycles"] > 0
    assert first["opcodes"] == second["opcodes"] > 0
