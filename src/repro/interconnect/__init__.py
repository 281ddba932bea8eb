"""Crossbar interconnects (paper Section III-B).

Both the data crossbar (D-Xbar, 8 cores x 16 banks) and the instruction
crossbar (I-Xbar, 8 cores x 8 banks) are Mesh-of-Trees networks after
Rahimi et al. (DATE 2011): single-cycle access, per-bank round-robin
arbitration on conflicts, and a read-broadcast mechanism that serves all
same-address readers of a bank in one access.
"""

from repro.interconnect.arbiter import RoundRobinArbiter
from repro.interconnect.xbar import Crossbar, XbarStats
from repro.interconnect.mot import MeshOfTrees

__all__ = [
    "RoundRobinArbiter",
    "Crossbar",
    "XbarStats",
    "MeshOfTrees",
]
