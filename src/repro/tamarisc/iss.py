"""Fast functional single-core instruction-set simulator (ISS).

The paper's flow generates a cycle-accurate ISS from the LISA description;
this module is its stand-in for single-core work: kernel bring-up, golden
traces and unit tests.  A single core with private memories never stalls,
so cycles == retired instructions here.

Data memory is a flat 64 Ki-word logical space (dict-backed, zero-default);
no MMU is involved — the multi-core platforms in :mod:`repro.platform` add
banking, translation and arbitration.

Why it stays beside the platform: its default path executes each
instruction through :class:`~repro.tamarisc.cpu.Core`'s generic operand
walk.  The platform's cycle loop and the block and trace code
generators all run the handlers compiled by
:mod:`repro.tamarisc.dispatch`, so this walk is the only model of the
instruction semantics that does not depend on that module.  The
regression harness (:mod:`repro.tamarisc.regression`) checks every
platform core against it; folding the ISS into the platform as a
one-core configuration would leave the dispatch tables checked only
against themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.tamarisc.cpu import Core
from repro.tamarisc.dispatch import compile_program
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
    """Single-core functional simulator over a flat data memory.

    ``fast=True`` executes :meth:`run` through the decode-cached
    dispatch table of :mod:`repro.tamarisc.dispatch` instead of the
    generic operand walk.  Architectural state, statistics and error
    behaviour are bit-identical either way (the differential tests in
    ``tests/tamarisc`` enforce this); :meth:`step` always uses the
    generic path, and the two may be interleaved freely.
    """

    def __init__(self, program: Program, data: dict[int, int] | None = None,
                 fast: bool = False):
        self.program = program
        self.decoded = program.decoded()
        self.core = Core(pid=0, entry=program.entry)
        self.dmem: dict[int, int] = dict(data) if data else {}
        self.stats = ISSStats()
        self.fast = fast
        self._compiled = None

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
        if self.fast:
            return self._run_fast(max_cycles)
        for _ in range(max_cycles):
            if not self.step():
                return self.stats
        raise SimulationError(
            f"program did not halt within {max_cycles} cycles")

    def _run_fast(self, max_cycles: int) -> ISSStats:
        """Dispatch-table run loop; exact mirror of the :meth:`step` loop."""
        if self._compiled is None:
            self._compiled = compile_program(self.decoded)
        compiled = self._compiled
        core = self.core
        dmem = self.dmem
        stats = self.stats
        program_len = len(compiled)
        steps = dreads = dwrites = branches = 0
        try:
            while True:
                if core.halted:
                    return stats
                if steps >= max_cycles:
                    break
                pc = core.pc
                if pc >= program_len:
                    raise SimulationError(
                        f"PC {core.pc:#x} outside the "
                        f"{len(self.decoded)}-word program")
                handler = compiled[pc]
                value = None
                if handler.preview is not None:
                    dread, _ = handler.preview(core.regs)
                    if dread is not None:
                        value = dmem.get(dread, 0)
                store = handler.commit(core, value)
                steps += 1
                if value is not None:
                    dreads += 1
                if store is not None:
                    dmem[store[0] & WORD_MASK] = store[1] & WORD_MASK
                    dwrites += 1
                if core.pc != ((pc + 1) & 0x7FFF) and not core.halted:
                    branches += 1
            raise SimulationError(
                f"program did not halt within {max_cycles} cycles")
        finally:
            stats.cycles += steps
            stats.ifetches += steps
            stats.dreads += dreads
            stats.dwrites += dwrites
            stats.branches_taken += branches
