"""Basic-block translation cache for the fast-forward engine.

The fast-forward engine (:mod:`repro.platform.fast_forward`) removed the
crossbar machinery from conflict-free cycles but still dispatches one
compiled handler per instruction per core per cycle.  On the evaluated
workloads the cores spend >90 % of their cycles in *lockstep* (all
running cores at the same PC), so consecutive cycles execute the same
straight-line instruction sequence eight times over — a shape QEMU-style
dynamic binary translation exploits with translation blocks.

This module discovers straight-line **basic blocks** at first execution
(ending at a branch, ``HLT`` or the first unsupported instruction),
fuses their instructions into one specialised Python function per block
via source generation + ``exec``, and caches the result keyed by
``(pc, image_hash)``.  The instruction semantics are not defined here:
the generated code splices the source templates of
:mod:`repro.tamarisc.dispatch` (the ones its dispatch handlers are
generated from), so a block, a loop trace and the cycle loop's handlers
run one copy of them.  Code memory is read-only on these platforms, so
the cache never invalidates.  The generated callable is the *lockstep
variant*: it steps every running core through the whole block in one
call, at most one pass per call (loops, down to a block that branches
back to its own start, belong to the loop traces at the end of this
module), with

* straight-line ALU/MOV runs unrolled into a single per-core loop
  (register file and flags object hoisted once per core),
* dead flag-bit stores eliminated — a flag write is skipped when a later
  in-block instruction overwrites that bit before any point at which the
  block can exit (conflict fallback, address fault or block end),
* PC/retired updates deferred to the block exits (one constant store per
  core instead of one per instruction),
* memory steps compiled to a two-phase translate/verdict/commit schedule
  that replicates the engine's conflict proof exactly, including the
  all-private fast verdict (per-core private banks are disjoint, so a
  cycle whose accesses all hit the private window needs no bank map).

Exactness is the same contract the engine itself carries: architectural
state, every ``SimulationStats`` field, MMU/crossbar accounting and the
probe event stream are bit-identical to the per-instruction paths.  On a
potential bank conflict at block offset ``j`` the generated function
commits the first ``j`` cycles, fills the system's per-core in-flight
arrays with the already-translated bank/offset pairs and returns ``j``:
a conflict exit leaves those ports for the cycle loop to stage, as a
rejected per-cycle proof does.  Address faults raise mid-block with the
same message and the same committed-state cut as the per-cycle paths
(the generated code patches PC/retired before raising and records the
committed depth in ``_acc[6]`` for the engine's stat reconciliation).

The generated function is specialised on a small *environment* tuple
(data-memory geometry + broadcast capability), so one cached
:class:`Block` serves every architecture; code objects are memoised per
environment.
"""

from __future__ import annotations

import hashlib
import re

from repro.memory.layout import PRIVATE_BASE
from repro.tamarisc import dispatch
from repro.tamarisc.cpu import PC_MASK
from repro.tamarisc.dispatch import (
    _COND_EXPR,
    _FLAG_BITS,
    _address_lines,
    _branch_lines,
    _compile_cached,
    _semantic_lines,
    compile_instruction,
    supported,
)
from repro.tamarisc.isa import BranchMode, Cond, Instruction, Op

#: Body-length cap: a block never fuses more than this many straight-line
#: instructions (the terminator comes on top).  Bounds generated-code
#: size; real straight-line runs are far shorter.
MAX_BLOCK_BODY = 128

#: Flag bits each condition code reads (guard liveness in traces).
_COND_BITS = {cond: frozenset(re.findall(r"_f\.([czvn])", expr))
              for cond, expr in _COND_EXPR.items()}


def image_hash(words) -> str:
    """Content hash of a program image (cache key component)."""
    digest = hashlib.sha256()
    for word in words:
        digest.update(word.to_bytes(3, "little"))
    return digest.hexdigest()


def discover_block(decoded, pc: int) -> "Block":
    """Collect the straight-line block starting at ``pc`` (uncached).

    The block extends over supported ALU/``MOV`` instructions and ends
    *inclusively* at the first ``BR``/``HLT`` (the terminator executes
    inside the block) or *exclusively* at the first unsupported
    instruction, the :data:`MAX_BLOCK_BODY` cap or the program end.
    """
    instrs: list[Instruction] = []
    terminator = None
    index = pc
    end = len(decoded)
    while index < end:
        instr = decoded[index]
        if instr.op == Op.HLT or instr.op == Op.BR:
            instrs.append(instr)
            terminator = "hlt" if instr.op == Op.HLT else "br"
            break
        if not supported(instr) or len(instrs) >= MAX_BLOCK_BODY:
            break
        instrs.append(instr)
        index += 1
    return Block(pc, instrs, terminator)


#: Global translation cache: ``(pc, image_hash) -> Block``.  Code is
#: read-only, so entries are never invalidated; systems running the same
#: image share blocks (the engine re-specialises per memory geometry).
_CACHE: dict[tuple[int, str], "Block"] = {}

#: Process-level cache traffic counters.  Unlike the *per-engine*
#: ``blocks_compiled`` (deliberately cache-independent so metric
#: registries stay bit-identical run to run), these measure the real
#: hit/miss behaviour of the shared caches — the farm's warm-vs-cold
#: accounting snapshots them around each job.
_CACHE_STATS = {"block_hits": 0, "block_misses": 0}


def get_block(pc: int, img_hash: str, decoded) -> tuple["Block", bool]:
    """The cached block at ``(pc, img_hash)``; ``(block, compiled_now)``."""
    key = (pc, img_hash)
    block = _CACHE.get(key)
    if block is not None:
        _CACHE_STATS["block_hits"] += 1
        return block, False
    block = discover_block(decoded, pc)
    _CACHE[key] = block
    _CACHE_STATS["block_misses"] += 1
    return block, True


def cache_clear() -> None:
    """Drop every cached block and compiled source (tests, cold-cache
    measurements and memory-bound long sessions)."""
    _CACHE.clear()
    dispatch._CODE_CACHE.clear()


def cache_size() -> int:
    return len(_CACHE)


def cache_stats() -> dict:
    """Snapshot of the process-level cache traffic counters, with
    ``source_compiles``: the generated sources (dispatch handlers,
    blocks, traces) compiled into the one source -> code cache of
    :mod:`repro.tamarisc.dispatch`."""
    return {**_CACHE_STATS, **dispatch._CODE_STATS}


class Block:
    """One discovered basic block plus its per-environment code objects.

    ``total`` is the number of cycles a full execution commits (body
    length plus one for the terminator); ``total == 0`` marks an
    unusable block (first instruction unsupported) the engine must not
    enter.  ``handlers`` carries one
    :class:`~repro.tamarisc.dispatch.CompiledInstruction` per position
    so a conflict exit can give the cycle loop the right handler.
    """

    __slots__ = ("start", "instrs", "terminator", "handlers", "n_body",
                 "total", "_sources", "_codes")

    def __init__(self, start: int, instrs, terminator):
        self.start = start
        self.instrs = list(instrs)
        self.terminator = terminator  # 'br' | 'hlt' | None
        self.handlers = [compile_instruction(i) for i in self.instrs]
        self.n_body = len(self.instrs) - (1 if terminator else 0)
        self.total = len(self.instrs)
        self._sources: dict[tuple, str] = {}
        self._codes: dict[tuple, object] = {}

    def source(self, env: tuple) -> str:
        """The generated source for one environment (memoised)."""
        src = self._sources.get(env)
        if src is None:
            src = _generate_source(self, env)
            self._sources[env] = src
        return src

    def code(self, env: tuple):
        code = self._codes.get(env)
        if code is None:
            code = _compile_cached(
                self.source(env), f"<block {self.start:#x}+{self.total}>")
            self._codes[env] = code
        return code

    def build(self, env: tuple, layout, core_banks, storages,
              rbs, ros, wbs, wos, drb, dro, dwb, dwo):
        """Bind one engine's geometry/scratch; returns the block function.

        ``rbs``/``ros``/``wbs``/``wos`` are position-indexed per-core
        scratch lists (the generated memory phases fill them);
        ``drb``/``dro``/``dwb``/``dwo`` are the system's *pid*-indexed
        in-flight data ports, filled only on a conflict exit.
        """
        namespace: dict = {}
        exec(self.code(env), namespace)
        return namespace["_build"](layout, core_banks, storages,
                                   rbs, ros, wbs, wos, drb, dro, dwb, dwo)


# ---------------------------------------------------------------------------
# Liveness: which flag-bit stores can any exit observe?
# ---------------------------------------------------------------------------

def _live_flag_bits(block: Block) -> list[set]:
    """Per body position, the flag bits whose stores are observable.

    The block can stop after instruction ``m - 1`` for every memory
    position ``m`` (conflict fallback or address fault at ``m``) and
    after the last body instruction (terminator or block end), so those
    are the checkpoints; a bit written at ``t`` is dead iff another
    in-block instruction overwrites it before the first checkpoint at or
    after ``t``.
    """
    handlers = block.handlers
    instrs = block.instrs
    n_body = block.n_body
    checkpoints = {t - 1 for t in range(n_body)
                   if t >= 1 and handlers[t].preview is not None}
    if n_body:
        checkpoints.add(n_body - 1)
    ordered = sorted(checkpoints)
    live: list[set] = []
    for t in range(n_body):
        checkpoint = next(c for c in ordered if c >= t)
        bits = set()
        for bit in _FLAG_BITS[instrs[t].op]:
            if not any(bit in _FLAG_BITS[instrs[u].op]
                       for u in range(t + 1, checkpoint + 1)):
                bits.add(bit)
        live.append(bits)
    return live


# ---------------------------------------------------------------------------
# Source generation.
# ---------------------------------------------------------------------------

class _Writer:
    __slots__ = ("lines",)

    def __init__(self):
        self.lines: list[str] = []

    def add(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def block(self, indent: int, lines) -> None:
        for line in lines:
            self.lines.append("    " * indent + line)


def _generate_source(block: Block, env: tuple) -> str:
    """The complete ``_build`` module source for one environment.

    ``env`` is ``(pwc, pwb, swb, shared_words, dm_banks, data_broadcast)``
    — exactly the geometry the engine's per-cycle preview consults.
    The block function also takes ``_dmw``, the metrics sink's DM
    broadcast-width histogram (``None`` when no sink is attached).
    """
    lines = ["def _build(_layout, _cb, _sto, _rbs, _ros, _wbs, _wos,"
             " _drb, _dro, _dwb, _dwo):"]
    lines.append("    def _run(_cores, _mp, _ms, _dlast, _dtr, _acc, _dmw):")
    lines.extend("        " + line for line in _generate_body(block, env))
    lines.append("    return _run")
    return "\n".join(lines) + "\n"


def _generate_body(block: Block, env: tuple) -> list[str]:
    handlers = block.handlers
    instrs = block.instrs
    n_body = block.n_body
    live = _live_flag_bits(block)
    writer = _Writer()
    if any(handlers[t].preview is not None for t in range(n_body)):
        writer.add(0, "_n = len(_cores)")
    position = 0
    while position < n_body:
        if handlers[position].preview is None:
            segment = [position]
            position += 1
            while position < n_body and handlers[position].preview is None:
                segment.append(position)
                position += 1
            _emit_alu_segment(writer, instrs, live, segment)
        else:
            _emit_mem_step(writer, block, env, position, live[position])
            position += 1
    _emit_terminator(writer, block)
    return writer.lines


def _emit_alu_segment(writer: _Writer, instrs, live, segment) -> None:
    needs_flags = any(live[t] for t in segment)
    writer.add(0, "for _c in _cores:")
    writer.add(1, "_r = _c.regs")
    if needs_flags:
        writer.add(1, "_f = _c.flags")
    for t in segment:
        writer.block(1, _semantic_lines(instrs[t], live[t]))


def _raise_fixup_lines(block: Block, offset: int) -> list[str]:
    """Patch committed PC/retired and record depth before a fault raise."""
    out = [f"_acc[6] = {offset}"]
    if offset:
        out.append("for _cx in _cores:")
        out.append(f"    _cx.pc = {(block.start + offset) & PC_MASK}")
        out.append(f"    _cx.retired += {offset}")
    return out


def _emit_translate(writer: _Writer, indent: int, block: Block, env: tuple,
                    offset: int, kind: str) -> None:
    """One address translation, engine order: count, fault, map.

    ``kind`` is ``'r'`` or ``'w'``; reads use ``_ra``/``_rb``/``_ro``
    and fill ``_rbs``/``_ros``, writes likewise.
    """
    pwc, pwb, swb, shared_words, dbn, _bcast = env
    addr = f"_{kind}a"
    bank = f"_{kind}b"
    off = f"_{kind}o"
    dest_b = "_rbs" if kind == "r" else "_wbs"
    dest_o = "_ros" if kind == "r" else "_wos"
    fixup = _raise_fixup_lines(block, offset)
    writer.add(indent, f"if {addr} >= {PRIVATE_BASE}:")
    writer.add(indent + 1, "_mp[_p] += 1")
    writer.add(indent + 1, f"_o = {addr} - {PRIVATE_BASE}")
    writer.add(indent + 1, f"if _o >= {pwc}:")
    writer.block(indent + 2, fixup)
    writer.add(indent + 2, f"_layout.translate(_p, {addr})")
    writer.add(indent + 1, f"{bank} = _cb[_p][_o // {pwb}]")
    writer.add(indent + 1, f"{off} = {swb} + _o % {pwb}")
    writer.add(indent, "else:")
    writer.add(indent + 1, "_ms[_p] += 1")
    writer.add(indent + 1, f"if {addr} >= {shared_words}:")
    writer.block(indent + 2, fixup)
    writer.add(indent + 2, f"_layout.translate(_p, {addr})")
    writer.add(indent + 1, f"{bank} = {addr} % {dbn}")
    writer.add(indent + 1, f"{off} = {addr} // {dbn}")
    writer.add(indent + 1, "_allp = False")
    writer.add(indent, f"{dest_b}[_i] = {bank}")
    writer.add(indent, f"{dest_o}[_i] = {off}")


def _emit_conflict_exit(writer: _Writer, indent: int, block: Block,
                        offset: int, reads: bool, writes: bool) -> None:
    """Fill the system's pid-indexed in-flight ports and return depth.

    The depth is the conflicting offset, less than the block's
    ``total``, so it also names the handler the cycle loop stages.
    """
    writer.add(indent, "_x = 0")
    writer.add(indent, "for _c in _cores:")
    writer.add(indent + 1, "_q = _c.pid")
    if reads:
        writer.add(indent + 1, "_drb[_q] = _rbs[_x]")
        writer.add(indent + 1, "_dro[_q] = _ros[_x]")
    else:
        writer.add(indent + 1, "_drb[_q] = -1")
    if writes:
        writer.add(indent + 1, "_dwb[_q] = _wbs[_x]")
        writer.add(indent + 1, "_dwo[_q] = _wos[_x]")
    else:
        writer.add(indent + 1, "_dwb[_q] = -1")
    if offset:
        writer.add(indent + 1,
                   f"_c.pc = {(block.start + offset) & PC_MASK}")
        writer.add(indent + 1, f"_c.retired += {offset}")
    writer.add(indent + 1, "_x += 1")
    writer.add(indent, f"return {offset}")


def _emit_mem_step(writer: _Writer, block: Block, env: tuple, offset: int,
                   live: set) -> None:
    _pwc, _pwb, _swb, _shared, _dbn, bcast = env
    instr = block.instrs[offset]
    handler = block.handlers[offset]
    reads = handler.reads_mem
    writes = handler.writes_mem

    # ---- phase A: addresses + translation for every core ----
    writer.add(0, "_allp = True")
    writer.add(0, "_i = 0")
    writer.add(0, "for _c in _cores:")
    writer.add(1, "_r = _c.regs")
    writer.add(1, "_p = _c.pid")
    writer.block(1, _address_lines(instr))
    if reads:
        _emit_translate(writer, 1, block, env, offset, "r")
    if writes:
        _emit_translate(writer, 1, block, env, offset, "w")
    writer.add(1, "_i += 1")

    # ---- verdict: replicate the engine's per-cycle conflict proof ----
    # Private banks are disjoint across cores and private offsets
    # (>= shared_words_per_bank) never equal shared offsets, so an
    # all-private cycle can only conflict core-locally (read bank ==
    # write bank of the same core).
    broadcast_loop = False
    if reads and writes:
        writer.add(0, "if _allp:")
        writer.add(1, "_x = 0")
        writer.add(1, "while _x < _n:")
        writer.add(2, "if _rbs[_x] == _wbs[_x]:")
        _emit_conflict_exit(writer, 3, block, offset, reads, writes)
        writer.add(2, "_x += 1")
        writer.add(1, "_acc[0] += 2 * _n")
        writer.add(0, "else:")
        writer.add(1, "_map = {}")
        writer.add(1, "_confl = False")
        writer.add(1, "_x = 0")
        writer.add(1, "while _x < _n:")
        writer.add(2, "_b = _rbs[_x]")
        writer.add(2, "_e = _map.get(_b)")
        writer.add(2, "if _e is None:")
        writer.add(3, "_map[_b] = [_ros[_x], 1, False]")
        if bcast:
            writer.add(2, "elif _e[2] or _e[0] != _ros[_x]:")
            writer.add(3, "_confl = True")
            writer.add(2, "else:")
            writer.add(3, "_e[1] += 1")
        else:
            writer.add(2, "else:")
            writer.add(3, "_confl = True")
        writer.add(2, "_b = _wbs[_x]")
        writer.add(2, "if _b in _map:")
        writer.add(3, "_confl = True")
        writer.add(2, "else:")
        writer.add(3, "_map[_b] = [0, 0, True]")
        writer.add(2, "_x += 1")
        writer.add(1, "if _confl:")
        _emit_conflict_exit(writer, 2, block, offset, reads, writes)
        writer.add(1, "_acc[0] += len(_map)")
        broadcast_loop = bcast
    elif reads:
        writer.add(0, "if _allp:")
        writer.add(1, "_acc[0] += _n")
        writer.add(0, "else:")
        writer.add(1, "_map = {}")
        writer.add(1, "_confl = False")
        writer.add(1, "_x = 0")
        writer.add(1, "while _x < _n:")
        writer.add(2, "_b = _rbs[_x]")
        writer.add(2, "_e = _map.get(_b)")
        writer.add(2, "if _e is None:")
        writer.add(3, "_map[_b] = [_ros[_x], 1]")
        if bcast:
            writer.add(2, "elif _e[0] != _ros[_x]:")
            writer.add(3, "_confl = True")
            writer.add(2, "else:")
            writer.add(3, "_e[1] += 1")
        else:
            writer.add(2, "else:")
            writer.add(3, "_confl = True")
        writer.add(2, "_x += 1")
        writer.add(1, "if _confl:")
        _emit_conflict_exit(writer, 2, block, offset, reads, writes)
        writer.add(1, "_acc[0] += len(_map)")
        broadcast_loop = bcast
    else:  # write-only: writes never merge, bank uniqueness decides
        writer.add(0, "if _allp:")
        writer.add(1, "_acc[0] += _n")
        writer.add(0, "else:")
        writer.add(1, "_st = set()")
        writer.add(1, "_x = 0")
        writer.add(1, "while _x < _n:")
        writer.add(2, "_st.add(_wbs[_x])")
        writer.add(2, "_x += 1")
        writer.add(1, "if len(_st) != _n:")
        _emit_conflict_exit(writer, 2, block, offset, reads, writes)
        writer.add(1, "_acc[0] += _n")

    if broadcast_loop:
        # Same-address read merges: broadcast counters and the metrics
        # sink's width histogram.
        writer.add(1, "for _e in _map.values():")
        writer.add(2, "_w = _e[1]")
        writer.add(2, "if _w > 1:")
        writer.add(3, "_acc[2] += 1")
        writer.add(3, "_acc[3] += _w - 1")
        writer.add(3, "if _dmw is not None:")
        writer.add(4, "_dmw[_w] = _dmw.get(_w, 0) + 1")

    # ---- phase B: commit every core ----
    writer.add(0, "_x = 0")
    writer.add(0, "for _c in _cores:")
    writer.add(1, "_r = _c.regs")
    writer.add(1, "_p = _c.pid")
    if live:
        writer.add(1, "_f = _c.flags")
    if reads:
        writer.add(1, "_b = _rbs[_x]")
        writer.add(1, "_dl = _dlast[_p]")
        writer.add(1, "if _dl is not None and _dl != _b:")
        writer.add(2, "_dtr[_p] += 1")
        writer.add(1, "_dlast[_p] = _b")
        writer.add(1, "_v = _sto[_b][_ros[_x]]")
    writer.block(1, _semantic_lines(instr, live))
    if writes:
        writer.add(1, "_b = _wbs[_x]")
        writer.add(1, "_dl = _dlast[_p]")
        writer.add(1, "if _dl is not None and _dl != _b:")
        writer.add(2, "_dtr[_p] += 1")
        writer.add(1, "_dlast[_p] = _b")
        writer.add(1, "_sto[_b][_wos[_x]] = _res")
    writer.add(1, "_x += 1")

    accesses = int(reads) + int(writes)
    writer.add(0, f"_acc[1] += {accesses} * _n")
    if reads:
        writer.add(0, "_acc[4] += _n")
    if writes:
        writer.add(0, "_acc[5] += _n")


def _emit_terminator(writer: _Writer, block: Block) -> None:
    n_body = block.n_body
    end_pc = (block.start + n_body) & PC_MASK
    writer.add(0, "for _c in _cores:")
    if block.terminator == "br":
        writer.block(1, _branch_lines(block.instrs[-1], end_pc))
    elif n_body:
        writer.add(1, f"_c.pc = {end_pc}")
    if block.terminator == "hlt":
        writer.add(1, "_c.halted = True")
    writer.add(1, f"_c.retired += {block.total}")
    writer.add(0, f"return {block.total}")


# ---------------------------------------------------------------------------
# Loop traces: cyclic block-graph paths fused into one looping callable.
# ---------------------------------------------------------------------------
#
# The block layer amortises dispatch over one straight-line run and
# commits at most one pass per entry, so a hot loop of the evaluated
# kernels, a *cycle in the block graph* (short blocks chained by
# conditional branches, or one block branching back to itself), still
# pays one full engine entry every few cycles.  A :class:`Trace` fuses
# one such cycle — anchored at a hot block, optionally *forking into the
# two arms of the anchor's branch* and rejoining at the anchor (an arm
# of a one-block loop chains no block) — into a single generated
# function that keeps iterating while every running core stays on the
# traced paths in lockstep.  Key properties:
#
# * uniform execution: lockstep cores run one program image down one
#   control path (the code sharing the broadcast platforms are built
#   on), so each iteration's computation runs *once* in scalar locals; a
#   per-core loop replays only what differs per core — registers seen to
#   differ at build time plus everything data-dependent on them,
#   private-bank loads and stores, and data-crossbar bank transitions
#   (:func:`_uniform_plan` derives the split; a shape without one never
#   becomes a trace);
# * entry check: ``_run`` declines (returns 0, state untouched) unless
#   every core enters with core 0's uniform-classified registers and
#   loaded flags;
# * two-arm support: a branch at the anchor (the shape Huffman bit loops
#   produce) compiles both directions and the uniform condition picks
#   the arm;
# * every branch is a *guard*: the iteration aborts the moment control
#   leaves the traced direction, including the final back-edge.  Traces
#   therefore only ever commit whole iterations, all of them lockstep,
#   provably conflict-free;
# * abort without rollback: uniform scalars restore from their
#   iteration-start copies and per-core effects apply only after an
#   iteration's last guard, so a guard exit, an out-of-range address or
#   an unexpected shared/private access leaves the last committed
#   iteration boundary intact and returns the committed cycle count
#   (0 = decline); the engine replays the rest through the
#   per-block/per-cycle paths;
# * statistics folded at exit as compile-time constants times the
#   per-arm iteration counts (committed iterations of one arm are
#   identical by construction).
#
# Traces never raise and never handle conflicts: anything outside the
# proven iteration shape is someone else's cycle.

#: Cap on the number of instructions one trace iteration may fuse
#: (anchor plus the longer arm).
MAX_TRACE_INSTRS = 192

#: Cap on chained blocks per arm.
MAX_TRACE_BLOCKS = 8


def _scalarize(lines):
    """Rewrite ``_r[N]`` -> ``_gN`` and ``_f.x`` -> ``_fx`` in template
    output, turning the register-file/flags-object forms of the shared
    semantic generators into scalar-local forms."""
    out = []
    for line in lines:
        line = re.sub(r"_r\[(\d+)\]", r"_g\1", line)
        out.append(line.replace("_f.", "_f"))
    return out


def _sc_cond(cond: Cond) -> str:
    return _COND_EXPR[cond].replace("_f.", "_f")


class _Arm:
    """One path from the anchor's branch back to the anchor."""

    __slots__ = ("expected", "cells", "pcs")

    def __init__(self, expected, cells, pcs):
        self.expected = expected  # anchor branch direction entering it
        self.cells = cells
        self.pcs = tuple(pcs)


class Trace:
    """One anchored loop shape.

    ``prefix_cells`` covers the anchor block's body; ``split`` is the
    anchor's terminator (a guard for one-arm traces, a runtime arm
    select for two-arm traces); each :class:`_Arm` chains zero or more
    blocks whose terminators are all guards, the last one expected to
    return to ``start``.  Cells are ``("alu", instr)``,
    ``("read", instr)``, ``("write", instr)`` or
    ``("guard", instr, expected_taken)``.
    """

    __slots__ = ("start", "prefix_cells", "prefix_pcs", "split", "arms",
                 "percore_regs", "percore_flags", "periods", "max_period")

    def __init__(self, start, prefix_cells, prefix_pcs, split, arms,
                 percore_regs=frozenset(), percore_flags=frozenset()):
        self.start = start
        self.prefix_cells = prefix_cells
        self.prefix_pcs = tuple(prefix_pcs)  # includes the split cycle
        self.split = split
        self.arms = arms
        self.percore_regs = frozenset(percore_regs)
        self.percore_flags = frozenset(percore_flags)
        self.periods = tuple(len(self.prefix_pcs) + len(arm.pcs)
                             for arm in arms)
        self.max_period = max(self.periods)

    def arm_pcs(self, index: int) -> tuple:
        """Full fetch-PC sequence of one iteration through arm ``index``."""
        return self.prefix_pcs + self.arms[index].pcs

    def build(self, env: tuple, layout, core_banks, storages):
        """Bind one engine's geometry; the trace's ``_run`` callable, or
        ``None`` when the shape has no uniform plan in ``env``."""
        src = _generate_trace_source(self, env)
        if src is None:
            return None
        namespace: dict = {}
        exec(_compile_cached(
            src, f"<trace {self.start:#x}x{self.max_period}>"), namespace)
        return namespace["_build"](layout, core_banks, storages)


def _body_cells(block: Block, base_pc: int):
    """Body cells + fetch PCs of one block, or ``None`` if unfusable."""
    cells: list[tuple] = []
    pcs: list[int] = []
    for t in range(block.n_body):
        handler = block.handlers[t]
        instr = block.instrs[t]
        if handler.preview is None:
            cells.append(("alu", instr))
        elif handler.reads_mem and handler.writes_mem:
            return None  # same-core two-port access: conflict-prone
        elif handler.reads_mem:
            cells.append(("read", instr))
        else:
            cells.append(("write", instr))
        pcs.append((base_pc + t) & PC_MASK)
    return cells, pcs


def build_trace(anchor: Block, arms_spec, percore_regs=(),
                percore_flags=()) -> "Trace | None":
    """Fuse an anchored loop shape into a :class:`Trace`.

    ``arms_spec`` is ``[(split_expected, chain), ...]`` with one or two
    entries; each ``chain`` is ``[(block, expected_taken), ...]`` (zero
    or more blocks whose terminators are all direct/relative branches),
    the last expected direction returning to ``anchor.start``.
    ``percore_regs``/``percore_flags`` name state observed to differ
    across the lockstep cores at build time — the seed for
    :func:`_uniform_plan`'s dataflow split.  Returns ``None`` on any
    construct the trace compiler rejects.
    """
    if anchor.terminator != "br" or not 1 <= len(arms_spec) <= 2:
        return None
    split = anchor.instrs[-1]
    if split.bmode == BranchMode.IND:
        return None
    if len(arms_spec) == 2:
        if {spec[0] for spec in arms_spec} != {True, False}:
            return None
        arms_spec = sorted(arms_spec, key=lambda spec: not spec[0])
    if split.cond == Cond.AL and not arms_spec[0][0]:
        return None
    prefix = _body_cells(anchor, anchor.start)
    if prefix is None:
        return None
    prefix_cells, prefix_pcs = prefix
    prefix_pcs.append((anchor.start + anchor.n_body) & PC_MASK)
    arms = []
    for expected, chain in arms_spec:
        cells: list[tuple] = []
        pcs: list[int] = []
        for block, taken in chain:
            if block.terminator != "br":
                return None
            instr = block.instrs[-1]
            if instr.bmode == BranchMode.IND \
                    or (instr.cond == Cond.AL and not taken):
                return None
            body = _body_cells(block, block.start)
            if body is None:
                return None
            cells += body[0]
            pcs += body[1]
            cells.append(("guard", instr, taken))
            pcs.append((block.start + block.n_body) & PC_MASK)
        if len(prefix_pcs) + len(pcs) > MAX_TRACE_INSTRS:
            return None
        arms.append(_Arm(expected, cells, pcs))
    return Trace(anchor.start, prefix_cells, prefix_pcs, split, arms,
                 percore_regs, percore_flags)


def _seq_flag_emits(cells):
    """Per-cell flag bits to store, over one linear cell sequence.

    Liveness is conservative at the sequence end (every bit may be
    observed after the iteration); inside it a store is dead when a
    later instruction overwrites the bit before any guard reads it.
    """
    live = set("cvzn")
    emits: list[set] = [set()] * len(cells)
    for t in range(len(cells) - 1, -1, -1):
        cell = cells[t]
        if cell[0] == "guard":
            if cell[1].cond != Cond.AL:
                live |= _COND_BITS[cell[1].cond]
        else:
            written = set(_FLAG_BITS[cell[1].op])
            emits[t] = written & live
            live -= written
    return emits


def _trace_flag_plan(trace: Trace):
    """(prefix_emits, per-arm emits, loads, stores) for one trace.

    Prefix cells take the union of their per-arm emit sets (an extra
    store of a correct value is never wrong).  ``loads`` pulls every
    stored or guard-read bit into scalars at iteration start, so the
    boundary buffers always hold current values whichever arm ran.
    """
    n_prefix = len(trace.prefix_cells)
    prefix_emits = [set() for __ in range(n_prefix)]
    arm_emits = []
    guard_bits: set = set()
    if trace.split.cond != Cond.AL:
        guard_bits |= _COND_BITS[trace.split.cond]
    for arm in trace.arms:
        seq = list(trace.prefix_cells) \
            + [("guard", trace.split, arm.expected)] \
            + list(arm.cells)
        emits = _seq_flag_emits(seq)
        for t in range(n_prefix):
            prefix_emits[t] |= emits[t]
        arm_emits.append(emits[n_prefix + 1:])
        for cell in arm.cells:
            if cell[0] == "guard" and cell[1].cond != Cond.AL:
                guard_bits |= _COND_BITS[cell[1].cond]
    stores = set().union(*prefix_emits, *(s for em in arm_emits
                                          for s in em)) \
        if (prefix_emits or arm_emits) else set()
    loads = stores | guard_bits
    return prefix_emits, arm_emits, sorted(loads), sorted(stores)


def _guard_lines(instr: Instruction, expected: bool):
    if instr.cond == Cond.AL:
        return []  # always taken; build_trace rejected expected=False
    cond = _sc_cond(instr.cond)
    return [
        f"if not ({cond}):" if expected else f"if {cond}:",
        "    _bail = True",
        "    break",
    ]


def _fold_expr(per_arm_counts, count_vars):
    """``"3 * _ia + 5 * _ib"``-style constant fold, or ``None``."""
    terms = [f"{count} * {var}"
             for count, var in zip(per_arm_counts, count_vars) if count]
    return " + ".join(terms) if terms else None


_REG_REF = re.compile(r"_g(\d+)")
_FLAG_REF = re.compile(r"_f([czvn])\b")


def _cell_io(lines):
    """(reg_reads, reg_writes, flag_reads, flag_writes) over cell lines.

    Conservative regex-level dataflow over generated scalar code: a
    line-initial ``_gN = `` / ``_fX = `` is a write, every other
    occurrence a read.
    """
    rr: set = set()
    rw: set = set()
    fr: set = set()
    fw: set = set()
    for line in lines:
        stripped = line.lstrip()
        rhs = stripped
        match = _REG_REF.match(stripped)
        if match and stripped[match.end():].startswith(" = "):
            rw.add(int(match.group(1)))
            rhs = stripped[match.end() + 3:]
        else:
            match = _FLAG_REF.match(stripped)
            if match and stripped[match.end():].startswith(" = "):
                fw.add(match.group(1))
                rhs = stripped[match.end() + 3:]
        for ref in _REG_REF.finditer(rhs):
            rr.add(int(ref.group(1)))
        for ref in _FLAG_REF.finditer(rhs):
            fr.add(ref.group(1))
    return rr, rw, fr, fw


def _uniform_plan(trace: Trace, env: tuple):
    """The trace's code-generation plan, or ``None`` when the shape
    cannot run uniformly (the engine then never registers it).

    A trace executes each iteration's computation *once* with plain
    scalars and loops over the cores only for effects that genuinely
    differ per core: registers observed non-uniform at build time plus
    everything data-dependent on them, private-bank loads and stores,
    and MMU bank-transition accounting.  Prerequisites, checked here:
    every control decision (split + guards) and every memory address
    must be uniform, per-core data must never leak into a loaded or
    stored flag, and a read with a uniform destination must be a shared
    read the broadcast crossbar merges into one value (enforced at run
    time by bailing on private addresses).
    """
    data_broadcast = env[5]
    prefix_emits, arm_emits, flag_loads, flag_stores = \
        _trace_flag_plan(trace)
    seq = []
    for t, cell in enumerate(trace.prefix_cells):
        seq.append((cell, prefix_emits[t], None))
    for a, arm in enumerate(trace.arms):
        for t, cell in enumerate(arm.cells):
            seq.append((cell, arm_emits[a][t], a))
    infos = []
    for ci, (cell, emit, arm) in enumerate(seq):
        kind = cell[0]
        if kind == "guard":
            lines = _guard_lines(cell[1], cell[2])
            addr_regs: set = set()
        else:
            lines = _scalarize(_semantic_lines(cell[1], emit))
            addr_regs = _cell_io(
                _scalarize(_address_lines(cell[1])))[0] \
                if kind in ("read", "write") else set()
        srr, rw, sfr, fw = _cell_io(lines)
        infos.append({"ci": ci, "kind": kind, "arm": arm, "cell": cell,
                      "emit": emit, "lines": lines, "addr": addr_regs,
                      "srr": srr, "rr": srr | addr_regs, "rw": rw,
                      "fr": sfr, "fw": fw})
    p_regs = set(trace.percore_regs)
    p_flags = set(trace.percore_flags)
    changed = True
    while changed:
        changed = False
        for info in infos:
            if info["kind"] == "guard":
                continue
            if (info["rr"] & p_regs) or (info["fr"] & p_flags) \
                    or (info["rw"] & p_regs) or (info["fw"] & p_flags):
                if not (info["rw"] <= p_regs
                        and info["fw"] <= p_flags):
                    p_regs |= info["rw"]
                    p_flags |= info["fw"]
                    changed = True
    guard_bits: set = set()
    if trace.split.cond != Cond.AL:
        guard_bits |= _COND_BITS[trace.split.cond]
    for info in infos:
        if info["kind"] == "guard":
            guard_bits |= info["fr"]
        elif info["fr"] - set(flag_loads):
            # A semantic flag read outside the load plan would have no
            # entry uniformity check; refuse rather than risk it.
            return None
        if info["kind"] in ("read", "write") \
                and info["addr"] & p_regs:
            return None
    if guard_bits & p_flags:
        return None
    if (set(flag_loads) | set(flag_stores)) & p_flags:
        return None
    cls = ["p" if ((info["rr"] | info["rw"]) & p_regs
                   or (info["fr"] | info["fw"]) & p_flags) else "u"
           for info in infos]
    if "u" not in cls:
        return None
    # A uniform-dest read needs the broadcast crossbar to merge the
    # cores' shared fetches into one value.
    if not data_broadcast and any(
            info["kind"] == "read" and cls[info["ci"]] == "u"
            for info in infos):
        return None
    mctr = 0
    for info in infos:
        if info["kind"] in ("read", "write"):
            info["m"] = mctr
            mctr += 1
    return {"p_regs": p_regs, "p_flags": p_flags, "infos": infos,
            "cls": cls, "flag_loads": flag_loads,
            "flag_stores": flag_stores}


def _pc_renamed(info, lines, p_regs, p_flags):
    """Per-core emission of one cell's semantic lines.

    Uniform register/flag operands are captured into cell-unique
    scalars at the cell's position in the uniform section (so later
    uniform cells can freely overwrite them); the read value ``_v``
    becomes the cell's preloaded ``_v{m}``.

    Returns ``(captures, renamed_lines)``.
    """
    ci = info["ci"]
    captures = []
    out = list(lines)

    def _sub(pattern, repl):
        nonlocal out
        out = [re.sub(pattern, repl, line) for line in out]

    for reg in sorted(info["srr"] - p_regs):
        captures.append(f"_t{ci}r{reg} = _g{reg}")
        _sub(rf"\b_g{reg}\b", f"_t{ci}r{reg}")
    for bit in sorted(info["fr"] - p_flags):
        captures.append(f"_t{ci}f{bit} = _f{bit}")
        _sub(rf"\b_f{bit}\b", f"_t{ci}f{bit}")
    if info["kind"] == "read":
        _sub(r"\b_v\b", "_v%d" % info["m"])
    return captures, out


def _emit_trace_run(w: _Writer, trace: Trace, env: tuple,
                    plan: dict) -> None:
    """Emit the trace's ``_run``.

    ``_run`` first checks that every core enters with the same
    uniform-classified registers and loaded flags as core 0; otherwise
    it declines (returns 0) before touching any state.
    """
    pwc, pwb, swb, shared_words, dbn, _dbc = env
    infos = plan["infos"]
    cls = plan["cls"]
    p_regs = plan["p_regs"]
    p_flags = plan["p_flags"]
    flag_loads = plan["flag_loads"]
    flag_stores = plan["flag_stores"]
    two_arm = len(trace.arms) == 2
    read_lim = min(shared_words, PRIVATE_BASE)
    # Static shared/private split: a read whose destination is per-core
    # must be a private (per-bank) read — uniform dests mean uniform
    # values, which only a broadcast-merged shared read provides.  Each
    # path enforces its prediction with a range bail.
    sreads, preads, writes, accesses = [], [], [], []
    for k in range(len(trace.arms)):
        path = [info for info in infos if info["arm"] in (None, k)]
        pr = sum(1 for info in path if info["kind"] == "read"
                 and cls[info["ci"]] == "p")
        sr = sum(1 for info in path if info["kind"] == "read"
                 and cls[info["ci"]] == "u")
        wn = sum(1 for info in path if info["kind"] == "write")
        preads.append(pr)
        sreads.append(sr)
        writes.append(wn)
        accesses.append(pr + sr + wn)
    any_mem = any(accesses)
    any_write = any(writes)
    any_priv = any(preads)
    count_vars = ("_ia", "_ib") if two_arm else ("_it",)

    refs: set = set()
    stores_r: set = set()
    for info in infos:
        refs |= info["rr"] | info["rw"]
        stores_r |= info["rw"]
    u_loads = sorted(r for r in refs if r not in p_regs)
    u_stores = sorted(r for r in stores_r if r not in p_regs)
    p_used = sorted(r for r in refs if r in p_regs)
    p_stored = sorted(r for r in stores_r if r in p_regs)

    def emit_uniform_cell(info, indent):
        kind = info["kind"]
        percore = cls[info["ci"]] == "p"
        if kind == "guard":
            w.block(indent, info["lines"])
            return
        if kind == "alu":
            if percore:
                w.block(indent,
                        _pc_renamed(info, info["lines"],
                                    p_regs, p_flags)[0])
            else:
                w.block(indent, info["lines"])
            return
        m = info["m"]
        instr = info["cell"][1]
        w.block(indent, _scalarize(_address_lines(instr)))
        if kind == "read":
            if percore:  # private read: per-core banks, uniform offset
                w.add(indent, "_o = _ra - %d" % PRIVATE_BASE)
                w.add(indent, "if _o < 0 or _o >= %d:" % pwc)
                w.add(indent + 1, "_bail = True")
                w.add(indent + 1, "break")
                w.add(indent, "_od%d = _o // %d" % (m, pwb))
                w.add(indent, "_vo%d = %d + _o %% %d" % (m, swb, pwb))
                w.block(indent,
                        _pc_renamed(info, info["lines"],
                                    p_regs, p_flags)[0])
            else:  # shared read: fetch once, broadcast to every core
                w.add(indent, "if _ra >= %d:" % read_lim)
                w.add(indent + 1, "_bail = True")
                w.add(indent + 1, "break")
                w.add(indent, "_bk%d = _ra %% %d" % (m, dbn))
                w.add(indent, "_v%d = _sto[_bk%d][_ra // %d]"
                      % (m, m, dbn))
                w.block(indent, [re.sub(r"\b_v\b", "_v%d" % m, line)
                                 for line in info["lines"]])
            return
        # write cell: semantics first (the address was previewed), the
        # store itself happens in the per-core loop
        if percore:
            w.block(indent,
                    _pc_renamed(info, info["lines"], p_regs, p_flags)[0])
        else:
            w.block(indent, info["lines"])
            w.add(indent, "_res%d = _res" % m)
        w.add(indent, "_o = _wa - %d" % PRIVATE_BASE)
        w.add(indent, "if _o < 0 or _o >= %d:" % pwc)
        w.add(indent + 1, "_bail = True")
        w.add(indent + 1, "break")
        w.add(indent, "_od%d = _o // %d" % (m, pwb))
        w.add(indent, "_o2%d = %d + _o %% %d" % (m, swb, pwb))

    def percore_lines(arm_index):
        out: list[str] = []
        for info in infos:
            if info["arm"] not in (None, arm_index):
                continue
            kind = info["kind"]
            percore = cls[info["ci"]] == "p"
            if kind == "alu":
                if percore:
                    out += _pc_renamed(info, info["lines"],
                                       p_regs, p_flags)[1]
            elif kind == "read":
                m = info["m"]
                if percore:  # private: per-core bank fetch and replay
                    out += [f"_bk = _cbp[_od{m}]",
                            "if _dl is not None and _dl != _bk:",
                            "    _dt += 1",
                            "_dl = _bk",
                            f"_v{m} = _sto[_bk][_vo{m}]"]
                    out += _pc_renamed(info, info["lines"],
                                       p_regs, p_flags)[1]
                else:  # shared: uniform bank, per-core dlast replay
                    out += [f"if _dl is not None and _dl != _bk{m}:",
                            "    _dt += 1",
                            f"_dl = _bk{m}"]
            elif kind == "write":
                m = info["m"]
                if percore:
                    out += _pc_renamed(info, info["lines"],
                                       p_regs, p_flags)[1]
                out += [f"_bk = _cbp[_od{m}]",
                        "if _dl is not None and _dl != _bk:",
                        "    _dt += 1",
                        "_dl = _bk",
                        f"_sto[_bk][_o2{m}] = "
                        + ("_res" if percore else f"_res{m}")]
        return out

    def emit_arm_commit(arm_index, indent):
        if two_arm:
            w.add(indent, "_ia += 1" if arm_index == 0 else "_ib += 1")
            w.add(indent, "_la = %d" % (1 if arm_index == 0 else 0))
        else:
            w.add(indent, "_it += 1")
        w.add(indent, "_j += %d" % trace.periods[arm_index])
        lines = percore_lines(arm_index)
        if not lines:
            return
        path = [info for info in infos
                if info["arm"] in (None, arm_index)]
        path_mem = any(info["kind"] in ("read", "write")
                       for info in path)
        path_banked = any(
            info["kind"] == "write"
            or (info["kind"] == "read" and cls[info["ci"]] == "p")
            for info in path)
        rr, rw_, __, ___ = _cell_io(lines)
        loop_loads = sorted(r for r in rr | rw_ if r in p_regs)
        loop_stores = sorted(r for r in rw_ if r in p_regs)
        w.add(indent, "for _x in range(_n):")
        li = indent + 1
        if path_banked:
            w.add(li, "_cbp = _cbs[_x]")
        if path_mem:
            w.add(li, "_dl = _pdl[_x]")
            w.add(li, "_dt = 0")
        for reg in loop_loads:
            w.add(li, f"_g{reg} = _p{reg}[_x]")
        w.block(li, lines)
        for reg in loop_stores:
            w.add(li, f"_p{reg}[_x] = _g{reg}")
        if path_mem:
            w.add(li, "_pdl[_x] = _dl")
            w.add(li, "_pdt[_x] += _dt")

    w.add(1, "def _run(_cores, _mp, _ms, _dlast, _dtr, _acc, _maxj):")
    b = 2
    w.add(b, "_n = len(_cores)")
    w.add(b, "_c0 = _cores[0]")
    if u_loads:
        w.add(b, "_r0 = _c0.regs")
    if flag_loads:
        w.add(b, "_f0 = _c0.flags")
    if u_loads or flag_loads:
        w.add(b, "for _c in _cores:")
    if u_loads:
        w.add(b + 1, "_r = _c.regs")
        cond = " or ".join(f"_r[{reg}] != _r0[{reg}]" for reg in u_loads)
        w.add(b + 1, f"if {cond}:")
        w.add(b + 2, "return 0")
    if flag_loads:
        w.add(b + 1, "_f = _c.flags")
        cond = " or ".join(f"_f.{bit} != _f0.{bit}" for bit in flag_loads)
        w.add(b + 1, f"if {cond}:")
        w.add(b + 2, "return 0")
    for reg in u_loads:
        w.add(b, f"_g{reg} = _r0[{reg}]")
    for bit in flag_loads:
        w.add(b, f"_f{bit} = _f0.{bit}")
    for reg in p_used:
        w.add(b, f"_p{reg} = [_c.regs[{reg}] for _c in _cores]")
    if any_mem:
        if any_write or any_priv:
            w.add(b, "_cbs = [_cb[_c.pid] for _c in _cores]")
        w.add(b, "_pdl = [_dlast[_c.pid] for _c in _cores]")
        w.add(b, "_pdt = [0] * _n")
    w.add(b, "_j = 0")
    if two_arm:
        w.add(b, "_ia = 0")
        w.add(b, "_ib = 0")
        w.add(b, "_la = 1")
    else:
        w.add(b, "_it = 0")
    w.add(b, "_bail = False")
    w.add(b, "while True:")
    L = b + 1
    for reg in u_stores:
        w.add(L, f"_h{reg} = _g{reg}")
    for bit in flag_stores:
        w.add(L, f"_h{bit}f = _f{bit}")
    for info in infos:
        if info["arm"] is None:
            emit_uniform_cell(info, L)
    if two_arm:
        w.add(L, f"_d = {_sc_cond(trace.split.cond)}")
        w.add(L, "if _d:")
        for info in infos:
            if info["arm"] == 0:
                emit_uniform_cell(info, L + 1)
        emit_arm_commit(0, L + 1)
        w.add(L, "else:")
        for info in infos:
            if info["arm"] == 1:
                emit_uniform_cell(info, L + 1)
        emit_arm_commit(1, L + 1)
    else:
        w.block(L, _guard_lines(trace.split, trace.arms[0].expected))
        for info in infos:
            if info["arm"] == 0:
                emit_uniform_cell(info, L)
        emit_arm_commit(0, L)
    w.add(L, f"if _j + {trace.max_period} > _maxj:")
    w.add(L + 1, "break")
    if u_stores or flag_stores:
        w.add(b, "if _bail:")
        for reg in u_stores:
            w.add(b + 1, f"_g{reg} = _h{reg}")
        for bit in flag_stores:
            w.add(b + 1, f"_f{bit} = _h{bit}f")
    # ---- epilogue ----
    w.add(b, "if _j:")
    e = b + 1
    port_fold = _fold_expr(accesses, count_vars)
    mp_fold = _fold_expr([p + wn for p, wn in zip(preads, writes)],
                         count_vars)
    ms_fold = _fold_expr(sreads, count_vars)
    w.add(e, "_x = 0")
    w.add(e, "for _c in _cores:")
    w.add(e + 1, f"_c.pc = {trace.start}")
    w.add(e + 1, "_c.retired += _j")
    if u_stores or p_stored:
        w.add(e + 1, "_r = _c.regs")
        for reg in u_stores:
            w.add(e + 1, f"_r[{reg}] = _g{reg}")
        for reg in p_stored:
            w.add(e + 1, f"_r[{reg}] = _p{reg}[_x]")
    if flag_stores:
        w.add(e + 1, "_f = _c.flags")
        for bit in flag_stores:
            w.add(e + 1, f"_f.{bit} = _f{bit}")
    if any_mem:
        w.add(e + 1, "_p = _c.pid")
        if mp_fold:
            w.add(e + 1, f"_mp[_p] += {mp_fold}")
        if ms_fold:
            w.add(e + 1, f"_ms[_p] += {ms_fold}")
        w.add(e + 1, "_dlast[_p] = _pdl[_x]")
        w.add(e + 1, "if _pdt[_x]:")
        w.add(e + 2, "_dtr[_p] += _pdt[_x]")
    w.add(e + 1, "_x += 1")
    if any_mem:
        acc0 = ([f"({ms_fold})"] if ms_fold else []) \
            + ([f"_n * ({mp_fold})"] if mp_fold else [])
        if acc0:
            w.add(e, f"_acc[0] += {' + '.join(acc0)}")
        if port_fold:
            w.add(e, f"_acc[1] += _n * ({port_fold})")
        if ms_fold:
            w.add(e, "if _n > 1:")
            w.add(e + 1, f"_acc[2] += {ms_fold}")
            w.add(e + 1, f"_acc[3] += (_n - 1) * ({ms_fold})")
        rd_fold = _fold_expr([p + s for p, s in zip(preads, sreads)],
                             count_vars)
        if rd_fold:
            w.add(e, f"_acc[4] += _n * ({rd_fold})")
        wr_fold = _fold_expr(writes, count_vars)
        if wr_fold:
            w.add(e, f"_acc[5] += _n * ({wr_fold})")
    if two_arm:
        w.add(e, "_acc[7] = _ia")
        w.add(e, "_acc[8] = _ib")
        w.add(e, "_acc[9] = _la")
    else:
        w.add(e, "_acc[7] = _it")
        w.add(e, "_acc[8] = 0")
        w.add(e, "_acc[9] = 1")
    w.add(b, "return _j")


def _generate_trace_source(trace: Trace, env: tuple) -> str | None:
    plan = _uniform_plan(trace, env)
    if plan is None:
        return None
    w = _Writer()
    w.add(0, "def _build(_layout, _cb, _sto):")
    _emit_trace_run(w, trace, env, plan)
    w.add(1, "return _run")
    return "\n".join(w.lines) + "\n"
