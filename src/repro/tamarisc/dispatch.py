"""Fast-path instruction semantics: one source generator for every
compiled executor.

The generic operand walk of :class:`~repro.tamarisc.cpu.Core` — a
scratch register copy, per-operand mode dispatch and a :class:`Flags`
allocation per ALU result — costs microseconds per retired instruction.
It stays the independent oracle (the single-core ISS and the reference
cycle loop of the tests run it).  Every fast executor runs code
generated from the source templates of this module instead:

* :func:`compile_program` builds the dispatch table the platform's cycle
  loop (:mod:`repro.platform.multicore`) runs: one
  :class:`CompiledInstruction` per word, whose handlers are generated
  functions specialised on the opcode, addressing modes and registers;
* :mod:`repro.tamarisc.blocks` splices the same templates into
  translation blocks and loop traces.

The templates emit Python source over a register file ``_r``, a flags
object ``_f`` and a loaded word ``_v``: :func:`_address_lines` computes
the effective data addresses in preview order (``_ra``/``_wa``),
:func:`_semantic_lines` the commit (pointer side effects, result
``_res``, flag stores), :data:`_COND_EXPR` the branch conditions and
:func:`branch_targets` the branch destinations.  Generated source goes
through one process-level source -> code cache
(:func:`_compile_cached`), so identical text compiles once.

A handler carries two functions:

* ``preview(regs) -> (dread_addr, dwrite_addr)`` — the effective
  data-memory addresses the instruction will use, *without* mutating
  architectural state (the fast-path analogue of
  :meth:`Core.data_requests`); ``None`` when the instruction touches no
  data memory, so callers skip the data-port phase;
* ``commit(core, dread_value) -> word`` — retire the instruction exactly
  like :meth:`Core.execute`: operand side effects, ALU result, flags and
  PC.  It returns the stored word for a memory destination (the caller
  writes it at the previewed address), else ``None``.

``tests/tamarisc/test_dispatch.py`` checks every handler shape directly
against the generic walk, and ``tools/mutants.py`` checks that those
tests fail on broken templates.  Instructions outside the
single-read/single-write port contract (never produced by the assembler)
fall back to the generic :class:`Core` methods rather than guessing.
"""

from __future__ import annotations

from repro.tamarisc.cpu import Core, PC_MASK
from repro.tamarisc.isa import (
    ALU_OPS,
    BranchMode,
    Cond,
    DstMode,
    Instruction,
    Op,
    REG_XR,
    SRC_MEM_MODES,
    SrcMode,
)


class CompiledInstruction:
    """One instruction's specialised fast-path handlers.

    ``preview`` is ``None`` when the instruction touches no data memory
    (pure ALU/branch/halt), letting callers skip the data-port phase
    entirely.  ``reads_mem``/``writes_mem`` mirror
    :meth:`Instruction.reads_mem`/:meth:`Instruction.writes_mem`.
    """

    __slots__ = ("instr", "preview", "commit", "reads_mem", "writes_mem")

    def __init__(self, instr: Instruction, preview, commit,
                 reads_mem: bool, writes_mem: bool):
        self.instr = instr
        self.preview = preview
        self.commit = commit
        self.reads_mem = reads_mem
        self.writes_mem = writes_mem


def compile_program(decoded: list[Instruction]) -> list[CompiledInstruction]:
    """Compile a decoded program into its dispatch table."""
    return [compile_instruction(instr) for instr in decoded]


def compile_instruction(instr: Instruction) -> CompiledInstruction:
    """Build the specialised handlers for one decoded instruction."""
    reads = instr.reads_mem()
    writes = instr.writes_mem()
    if instr.op in (Op.BR, Op.HLT) or supported(instr):
        namespace: dict = {}
        exec(_compile_cached(_handler_source(instr), "<handler>"),
             namespace)
        return CompiledInstruction(instr, namespace.get("preview"),
                                   namespace["commit"], reads, writes)
    # Illegal dual-read instruction: defer to the generic core, which
    # raises the same diagnostics the generic interpreters do.
    return CompiledInstruction(instr, _generic_preview(instr),
                               _generic_commit(instr), reads, writes)


def supported(instr: Instruction) -> bool:
    """True for the ALU/``MOV`` words the templates specialise.

    That is every such word the core can execute: at most one memory
    source, for its one data-read port.  An illegal dual-read word takes the
    generic fallback and ends a translation block before it.
    """
    if instr.op == Op.MOV:
        return True
    return instr.op in ALU_OPS and not (instr.s1mode in SRC_MEM_MODES
                                        and instr.s2mode in SRC_MEM_MODES)


# ---------------------------------------------------------------------------
# Source templates.
# ---------------------------------------------------------------------------

#: Flag bits each opcode writes (the rest keep their value).
_FLAG_BITS = {
    Op.ADD: "cvzn",
    Op.SUB: "cvzn",
    Op.AND: "zn",
    Op.OR: "zn",
    Op.XOR: "zn",
    Op.SLL: "czn",
    Op.SRL: "czn",
    Op.MUL: "vzn",
    Op.MOV: "",
}

#: Pointer update of each memory source mode that moves its pointer.
_PTR_DELTA = {
    SrcMode.IND_POSTINC: 1,
    SrcMode.IND_PREINC: 1,
    SrcMode.IND_POSTDEC: -1,
    SrcMode.IND_PREDEC: -1,
}
_SRC_PRE = frozenset({SrcMode.IND_PREINC, SrcMode.IND_PREDEC})

#: Condition expressions over a hoisted ``_f`` flags object
#: (``Cond.AL`` needs none).
_COND_EXPR = {
    Cond.EQ: "_f.z",
    Cond.NE: "not _f.z",
    Cond.CS: "_f.c",
    Cond.CC: "not _f.c",
    Cond.MI: "_f.n",
    Cond.PL: "not _f.n",
    Cond.VS: "_f.v",
    Cond.VC: "not _f.v",
    Cond.HI: "_f.c and not _f.z",
    Cond.LS: "not _f.c or _f.z",
    Cond.GE: "_f.n == _f.v",
    Cond.LT: "_f.n != _f.v",
    Cond.GT: "not _f.z and _f.n == _f.v",
    Cond.LE: "_f.z or _f.n != _f.v",
}


def _ptr_update(mode: SrcMode, reg: int) -> list[str]:
    delta = _PTR_DELTA.get(mode)
    if not delta:
        return []
    sign = "+" if delta > 0 else "-"
    return [f"_r[{reg}] = (_r[{reg}] {sign} 1) & 65535"]


def _mem_src_slot(instr: Instruction) -> int:
    """0 = no memory source, 1/2 = which source operand loads memory."""
    if instr.s1mode in SRC_MEM_MODES:
        return 1
    if instr.op != Op.MOV and instr.s2mode in SRC_MEM_MODES:
        return 2
    return 0


def _semantic_lines(instr: Instruction, live) -> list[str]:
    """Commit semantics of one ALU/``MOV`` instruction, flag stores
    limited to the bits in ``live``.

    The loaded word, if any, is in ``_v``.  A memory destination leaves
    its result in ``_res`` (the caller owns the store, at the previewed
    address); a register destination is written here, after the pointer
    side effects, so it wins over one on the same register.
    """
    op = instr.op
    slot = _mem_src_slot(instr)
    dst_mem = instr.dmode != DstMode.REG
    out: list[str] = []

    # Source 1 (pointer side effect first).
    if slot == 1:
        out += _ptr_update(instr.s1mode, instr.s1val)
        a = "_v"
    elif instr.s1mode == SrcMode.REG:
        a = f"_r[{instr.s1val}]"
    else:
        a = str(instr.s1val)

    if op == Op.MOV:
        if dst_mem:
            out.append(f"_res = {a}")
            out += _dest_side_effect(instr)
        else:
            out.append(f"_r[{instr.dreg}] = {a}")
        return out

    # Source 2.  When source 2 is the memory operand and its pointer
    # register is source 1's register, latch the source-1 value first
    # (source 1 is read before source 2's side effect).
    if slot == 2:
        update = _ptr_update(instr.s2mode, instr.s2val)
        if update and instr.s1mode == SrcMode.REG \
                and instr.s1val == instr.s2val:
            out.append(f"_a = {a}")
            a = "_a"
        out += update
        b = "_v"
    elif instr.s2mode == SrcMode.REG:
        b = f"_r[{instr.s2val}]"
    else:
        b = str(instr.s2val)

    if op == Op.ADD:
        out.append(f"_t = {a} + {b}")
        out.append("_res = _t & 65535")
        if "c" in live:
            out.append("_f.c = _t > 65535")
        if "v" in live:
            out.append(f"_f.v = ~({a} ^ {b}) & ({a} ^ _res) & 32768 != 0")
    elif op == Op.SUB:
        out.append(f"_res = ({a} - {b}) & 65535")
        if "c" in live:
            out.append(f"_f.c = {a} >= {b}")
        if "v" in live:
            out.append(f"_f.v = ({a} ^ {b}) & ({a} ^ _res) & 32768 != 0")
    elif op in (Op.AND, Op.OR, Op.XOR):
        symbol = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}[op]
        out.append(f"_res = {a} {symbol} {b}")
    elif op in (Op.SLL, Op.SRL):
        if slot != 2 and instr.s2mode == SrcMode.IMM:
            shift = instr.s2val & 15
            if op == Op.SLL:
                out.append(f"_res = ({a} << {shift}) & 65535")
                if "c" in live:
                    out.append("_f.c = False" if shift == 0 else
                               f"_f.c = ({a} >> {16 - shift}) & 1 != 0")
            else:
                out.append(f"_res = ({a} >> {shift}) & 65535")
                if "c" in live:
                    out.append("_f.c = False" if shift == 0 else
                               f"_f.c = ({a} >> {shift - 1}) & 1 != 0")
        else:
            out.append(f"_s = {b} & 15")
            if op == Op.SLL:
                out.append(f"_res = ({a} << _s) & 65535")
                if "c" in live:
                    out.append(f"_f.c = (({a} >> (16 - _s)) & 1 != 0) "
                               "if _s else False")
            else:
                out.append(f"_res = ({a} >> _s) & 65535")
                if "c" in live:
                    out.append(f"_f.c = (({a} >> (_s - 1)) & 1 != 0) "
                               "if _s else False")
    elif op == Op.MUL:
        out.append(f"_t = {a} * {b}")
        out.append("_res = _t & 65535")
        if "v" in live:
            out.append("_f.v = _t > 65535")
    else:  # pragma: no cover - supported() admits only the ops above
        raise ValueError(f"cannot compile opcode {op!r}")

    if "z" in live:
        out.append("_f.z = _res == 0")
    if "n" in live:
        out.append("_f.n = _res & 32768 != 0")

    if dst_mem:
        out += _dest_side_effect(instr)
    else:
        out.append(f"_r[{instr.dreg}] = _res")
    return out


def _dest_side_effect(instr: Instruction) -> list[str]:
    # The store address comes from the preview; only the post-increment
    # pointer update remains to apply at commit.
    if instr.dmode == DstMode.IND_POSTINC:
        return [f"_r[{instr.dreg}] = (_r[{instr.dreg}] + 1) & 65535"]
    return []


def _address_lines(instr: Instruction) -> list[str]:
    """Effective-address computation (``_ra``/``_wa``), preview order.

    Operands evaluate source 1, source 2, destination, and the pointer
    side effect of the memory source is *virtually* visible to the
    destination address when the registers alias; nothing is written.
    """
    slot = _mem_src_slot(instr)
    dst_mem = instr.dmode != DstMode.REG
    dreg = instr.dreg
    out: list[str] = []
    if slot == 0:
        # Write-only preview.
        if instr.dmode == DstMode.IND_IDX:
            out.append(f"_wa = (_r[{dreg}] + _r[{REG_XR}]) & 65535")
        else:
            out.append(f"_wa = _r[{dreg}]")
        return out
    mode = instr.s1mode if slot == 1 else instr.s2mode
    pointer = instr.s1val if slot == 1 else instr.s2val
    delta = _PTR_DELTA.get(mode, 0)
    sign = "+" if delta > 0 else "-"
    pre = mode in _SRC_PRE
    idx = mode == SrcMode.IND_IDX
    if not dst_mem:
        # Read-only preview.
        if idx:
            out.append(f"_ra = (_r[{pointer}] + _r[{REG_XR}]) & 65535")
        elif pre:
            out.append(f"_ra = (_r[{pointer}] {sign} 1) & 65535")
        else:
            out.append(f"_ra = _r[{pointer}]")
        return out
    # Read + write.
    if pre:
        out.append(f"_vp = (_r[{pointer}] {sign} 1) & 65535")
        out.append("_ra = _vp")
    elif idx:
        out.append(f"_vp = _r[{pointer}]")
        out.append(f"_ra = (_vp + _r[{REG_XR}]) & 65535")
    else:
        out.append(f"_vp = _r[{pointer}]")
        out.append("_ra = _vp")
        if delta:
            out.append(f"_vp = (_vp {sign} 1) & 65535")
    base = "_vp" if dreg == pointer else f"_r[{dreg}]"
    if instr.dmode == DstMode.IND_IDX:
        index_reg = "_vp" if pointer == REG_XR else f"_r[{REG_XR}]"
        out.append(f"_wa = ({base} + {index_reg}) & 65535")
    else:
        out.append(f"_wa = {base}")
    return out


def branch_targets(instr: Instruction, pc):
    """``(taken, fallthrough)`` PCs of the ``BR`` at ``pc``.

    ``pc`` is the branch's address, or source text that reads it at run
    time (the dispatch handlers: a PC fault may move a core whose
    instruction is still waiting for a grant).  A PC that is not known
    statically comes back as source text, as does a register-indirect
    target (over a register file ``_r``).
    """
    def offset(delta):
        if isinstance(pc, int):
            return (pc + delta) & PC_MASK
        return f"({pc} + {delta}) & {PC_MASK}"

    if instr.bmode == BranchMode.DIR:
        taken = instr.target & PC_MASK
    elif instr.bmode == BranchMode.REL:
        taken = offset(instr.target)
    else:  # BranchMode.IND
        taken = f"_r[{instr.target}] & {PC_MASK}"
    return taken, offset(1)


def _branch_lines(instr: Instruction, pc) -> list[str]:
    """PC update of a core ``_c`` retiring the ``BR`` at ``pc``."""
    taken, fallthrough = branch_targets(instr, pc)
    out = ["_r = _c.regs"] if instr.bmode == BranchMode.IND else []
    if instr.cond == Cond.AL:
        return out + [f"_c.pc = {taken}"]
    return out + ["_f = _c.flags",
                  f"if {_COND_EXPR[instr.cond]}:",
                  f"    _c.pc = {taken}",
                  "else:",
                  f"    _c.pc = {fallthrough}"]


def _handler_source(instr: Instruction) -> str:
    """``preview``/``commit`` module source of one issuable word."""
    op = instr.op
    if op == Op.HLT:
        body = ["_c.halted = True"]
    elif op == Op.BR:
        body = _branch_lines(instr, "_c.pc")
    else:
        live = _FLAG_BITS[op]
        body = ["_r = _c.regs"] + (["_f = _c.flags"] if live else []) \
            + _semantic_lines(instr, live) \
            + [f"_c.pc = (_c.pc + 1) & {PC_MASK}"]
    lines = []
    reads, writes = instr.reads_mem(), instr.writes_mem()
    if reads or writes:
        lines.append("def preview(_r):")
        lines += ["    " + line for line in _address_lines(instr)]
        lines.append(f"    return {'_ra' if reads else None}, "
                     f"{'_wa' if writes else None}")
    lines.append("def commit(_c, _v):")
    lines += ["    " + line for line in body]
    lines.append("    _c.retired += 1")
    if writes:
        lines.append("    return _res")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Source -> code cache.
# ---------------------------------------------------------------------------

#: Source-text -> code-object cache.  Generated source is a pure
#: function of the instruction (handlers) or of the block shape and
#: environment (blocks, traces), so identical text across systems, runs
#: or trace rebuilds compiles exactly once per process.
_CODE_CACHE: dict[str, object] = {}

#: Compiles into :data:`_CODE_CACHE`, reported by
#: :func:`repro.tamarisc.blocks.cache_stats` as ``source_compiles``.
_CODE_STATS = {"source_compiles": 0}


def _compile_cached(src: str, filename: str):
    code = _CODE_CACHE.get(src)
    if code is None:
        code = compile(src, filename, "exec")
        _CODE_CACHE[src] = code
        _CODE_STATS["source_compiles"] += 1
    return code


# ---------------------------------------------------------------------------
# Generic fallbacks (illegal dual-read instructions only).
# ---------------------------------------------------------------------------

def _generic_preview(instr: Instruction):
    def preview(regs):
        scratch = list(regs)
        dread = None
        addr = Core._source_address(instr.s1mode, instr.s1val, scratch)
        if addr is not None:
            dread = addr
        if instr.op != Op.MOV:
            addr = Core._source_address(instr.s2mode, instr.s2val, scratch)
            if addr is not None:
                dread = addr
        return dread, Core._dest_address(instr, scratch)
    return preview


def _generic_commit(instr: Instruction):
    # Core.execute raises on the second memory source, so this never
    # returns a store.
    return lambda core, value: core.execute(instr, value)
