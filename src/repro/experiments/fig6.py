"""Fig. 6 — proposed design power vs throughput for clock constraints.

Same experiment as Fig. 5 on the proposed architecture: synthesis points
8.9 / 12 / 16 / 20 ns with threshold-region labels 0.54 / 0.41 / 0.39 /
0.38 mW; the 12 ns design saves 24.1 % against the speed-optimised one.
"""

from __future__ import annotations

from repro.experiments.fig5 import _run_family

PAPER_SAVING_PCT = 24.1


def run(fast_forward: bool = True):
    return _run_family(
        exp_id="fig6",
        title="Proposed design: power vs throughput for various clock "
              "constraints",
        family="proposed",
        arch="ulpmc-int",
        paper_saving_pct=PAPER_SAVING_PCT,
        fast_forward=fast_forward,
    )
