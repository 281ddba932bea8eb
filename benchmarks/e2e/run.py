"""Script entry point of the end-to-end benchmark (see harness.py).

    python3 benchmarks/e2e/run.py --workload lockstep --seed 1 --seconds 20
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.e2e.harness import main

if __name__ == "__main__":
    sys.exit(main())
