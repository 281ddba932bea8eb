"""Fast functional single-core instruction-set simulator (ISS).

The paper's flow generates a cycle-accurate ISS from the LISA description;
this module is its stand-in for single-core work: kernel bring-up, golden
traces and unit tests.  A single core with private memories never stalls,
so cycles == retired instructions here.

Data memory is a flat 64 Ki-word logical space (dict-backed, zero-default);
no MMU is involved — the multi-core platforms in :mod:`repro.platform` add
banking, translation and arbitration.

Why it stays beside the platform: it executes each instruction through
:class:`~repro.tamarisc.cpu.Core`'s generic operand walk.  The
platform's cycle loop and the block and trace code generators all run
code generated from the templates of :mod:`repro.tamarisc.dispatch`,
so this walk is the only model of the instruction semantics that does
not depend on that module.  The regression harness
(:mod:`repro.tamarisc.regression`) checks every platform core against
it; folding the ISS into the platform as a one-core configuration would
leave the generated code checked only against itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.tamarisc.cpu import Core
from repro.tamarisc.isa import WORD_MASK
from repro.tamarisc.program import Program


@dataclass
class ISSStats:
    """Counters maintained by the ISS."""

    cycles: int = 0
    ifetches: int = 0
    dreads: int = 0
    dwrites: int = 0
    branches_taken: int = 0


class InstructionSetSimulator:
    """Single-core functional simulator over a flat data memory."""

    def __init__(self, program: Program, data: dict[int, int] | None = None):
        self.program = program
        self.decoded = program.decoded()
        self.core = Core(pid=0, entry=program.entry)
        self.dmem: dict[int, int] = dict(data) if data else {}
        self.stats = ISSStats()

    # -- memory helpers -------------------------------------------------------

    def read(self, addr: int) -> int:
        """Read one data word (uninitialised memory reads as zero)."""
        return self.dmem.get(addr & WORD_MASK, 0)

    def write(self, addr: int, value: int) -> None:
        self.dmem[addr & WORD_MASK] = value & WORD_MASK

    def read_block(self, base: int, count: int) -> list[int]:
        """Read ``count`` consecutive words starting at ``base``."""
        return [self.read(base + offset) for offset in range(count)]

    def write_block(self, base: int, values) -> None:
        for offset, value in enumerate(values):
            self.write(base + offset, value)

    # -- execution -------------------------------------------------------------

    def step(self) -> bool:
        """Execute one instruction.  Returns False once halted."""
        core = self.core
        if core.halted:
            return False
        if not 0 <= core.pc < len(self.decoded):
            raise SimulationError(
                f"PC {core.pc:#x} outside the {len(self.decoded)}-word "
                "program")
        instr = self.decoded[core.pc]
        pc_before = core.pc
        dread, dwrite = core.data_requests(instr)
        value = self.read(dread.addr) if dread is not None else None
        store = core.execute(instr, value)
        if store is not None:
            addr, data = store
            if dwrite is None or addr != dwrite.addr:
                raise SimulationError(
                    "store address diverged from previewed request")
            self.write(addr, data)
        self.stats.cycles += 1
        self.stats.ifetches += 1
        if dread is not None:
            self.stats.dreads += 1
        if store is not None:
            self.stats.dwrites += 1
        if core.pc != ((pc_before + 1) & 0x7FFF) and not core.halted:
            self.stats.branches_taken += 1
        return not core.halted

    def run(self, max_cycles: int = 10_000_000) -> ISSStats:
        """Run until HLT.  Raises if ``max_cycles`` is exceeded."""
        for _ in range(max_cycles):
            if not self.step():
                return self.stats
        raise SimulationError(
            f"program did not halt within {max_cycles} cycles")
