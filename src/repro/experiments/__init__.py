"""One experiment module per paper table/figure.

Every module exposes ``run(fast_forward=True) -> ExperimentResult`` and
registers itself in :data:`EXPERIMENTS`; ``repro.cli`` and the pytest
benchmarks drive them.  ``fast_forward=False`` runs the simulations on
the exact cycle loop (bit-identical, slower).

=========  ==========================================================
id         reproduces
=========  ==========================================================
fig3       power distribution in the mc-ref architecture
fig5       mc-ref power vs throughput across clock constraints
fig6       proposed power vs throughput across clock constraints
table1     area of the architectures (kGE)
table2     dynamic power distributions at 8 MOps/s and 1.2 V
fig7       normalised power at workloads from 5 kOps/s to 637 MOps/s
fig8       dynamic vs leakage power at low workloads
core       TamaRISC energy/op vs state-of-the-art cores (Sec. IV-C1)
cycles     cycle counts, IM accesses, broadcast ablations (Sec. IV-C2)
ablations  per-mechanism feature ablations (extension, DESIGN.md §8)
scaling    core-count scaling under real time (extension, PATMOS'11)
lifetime   battery lifetime of the digital subsystem (extension)
=========  ==========================================================
"""

from repro.experiments.common import Comparison, ExperimentResult
from repro.experiments import (
    ablations,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    lifetime,
    scaling,
    table1,
    table2,
    core_energy,
    cycles,
)

#: Registry: experiment id -> module with a ``run(fast_forward)`` entry
#: point.
EXPERIMENTS = {
    "fig3": fig3,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "table1": table1,
    "table2": table2,
    "core": core_energy,
    "cycles": cycles,
    "ablations": ablations,
    "scaling": scaling,
    "lifetime": lifetime,
}

__all__ = ["Comparison", "ExperimentResult", "EXPERIMENTS"]
