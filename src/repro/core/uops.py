"""Micro-op lowering: pre-decoded dispatch for the scalar-v2 engine.

The seed interpreter (kept as the test oracle in ``tests/oracle/``)
re-discovers the same facts about an instruction on every cycle it
executes: its timing class (an enum property chain), its
operand domains, the ALU/branch callable behind its mnemonic, the perf
counter names it bumps.  This module lowers each decoded
:class:`~repro.isa.instructions.Instr` *once* into a bound handler
closure -- a micro-op -- with every per-cycle decision that is static
resolved at lowering time:

* register indices, immediates and operator callables are captured as
  closure cells;
* perf counters are pre-interned to integer slots of the flat
  :class:`~repro.core.perf.PerfCounters` storage, so a bump is a plain
  list-index increment;
* ``x0`` reads need no special case (the register file never writes
  slot 0, so ``values[0]``/``ready_cycle[0]`` are constant) and ``x0``
  writes are compiled out;
* tracing is compiled in only when a recorder is attached.

Integer micro-ops are lowered per core (:func:`lower_int`) and capture
the core's register file and perf slots directly.  FP micro-ops
(:func:`lower_fp`) are attached to :class:`DispatchedEntry` objects and
shared across FP subsystems (the SPMD program is shared), so they take
the subsystem as an argument and use its pre-resolved slot attributes.

Behaviour contract: a micro-op performs *exactly* the state transitions
and counter bumps of the seed interpreter in ``tests/oracle/`` for the
same machine state -- the differential test suite steps both in lockstep
to enforce this.
"""

from __future__ import annotations

from typing import Callable

from repro.core.fpu import EXECUTORS, UNPIPELINED_CLASSES, InFlightOp
from repro.core.perf import SLOT, StallReason
from repro.core.sequencer import DispatchedEntry
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import Instr, InstrClass, spec_for

_NEVER = 1 << 60
_MASK = 0xFFFFFFFF

#: Shared empty operand dict for FP entries that capture no integer
#: operands at dispatch; entries never mutate ``vals``, so one immutable
#: mapping serves every dispatch of every such instruction.
_NO_VALS: dict[str, int] = {}


# -- integer-side lowering ---------------------------------------------------

def lower_int(core, instr: Instr):
    """Lower ``instr`` into a ``handler(cycle)`` closure bound to ``core``."""
    iclass = instr.iclass
    if instr.is_fp or (iclass is InstrClass.CSR and is_fp_csr(instr.csr)):
        return _lower_dispatch(core, instr)
    if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                  InstrClass.INT_DIV):
        return _lower_alu(core, instr)
    if iclass is InstrClass.LOAD:
        return _lower_load(core, instr)
    if iclass is InstrClass.STORE:
        return _lower_store(core, instr)
    if iclass is InstrClass.BRANCH:
        return _lower_branch(core, instr)
    if iclass is InstrClass.JUMP:
        return _lower_jump(core, instr)
    if iclass in (InstrClass.CSR, InstrClass.DMA, InstrClass.SYS):
        return _lower_slow(core, instr)
    raise RuntimeError(f"integer core cannot execute {instr.mnemonic}")


_S_INT_INSTRS = SLOT["int_instrs"]
_S_HAZ = SLOT["int_hazard_stalls"]
_S_LSU = SLOT["int_lsu_stalls"]
_S_DISP = SLOT["int_dispatch_stalls"]
_S_TAKEN = SLOT["branches_taken"]
_S_NOT_TAKEN = SLOT["branches_not_taken"]
_S_FP_DISPATCHES = SLOT["fp_dispatches"]
_S_FREP_OPS = SLOT["frep_ops"]
_S_FP_CSR_OPS = SLOT["fp_csr_ops"]
_S_SCFG_OPS = SLOT["scfg_ops"]
_S_FP_LSU_OPS = SLOT["fp_lsu_ops"]
_S_FP_LOADS = SLOT["fp_loads"]
_S_FP_STORES = SLOT["fp_stores"]
_S_COMPUTE = SLOT["fpu_compute_ops"]
_S_SSR_READS = SLOT["ssr_reg_reads"]
_S_CHAIN_POPS = SLOT["chain_pops"]
_S_RF_READS = SLOT["fp_rf_reads"]


def _finish(core, instr, dispatched):
    """Shared epilogue: instruction-count bump plus optional trace."""
    vals = core.perf.values
    s_instrs = _S_INT_INSTRS
    trace = core.trace
    if trace is None:
        def finish(cycle):
            vals[s_instrs] += 1
    else:
        def finish(cycle):
            vals[s_instrs] += 1
            trace.int_issue(cycle, instr, dispatched)
    return finish


def _lower_alu(core, instr: Instr):
    from repro.core.int_core import _ALU_OPS, _IMM_TO_ALU, IntCore

    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    vals = core.perf.values
    s_haz = _S_HAZ
    finish = _finish(core, instr, False)

    if mn in ("lui", "auipc"):
        upper = (imm << 12) & _MASK
        is_auipc = mn == "auipc"

        def uop(cycle):
            value = (upper + core.pc) & _MASK if is_auipc else upper
            if rd:
                rvals[rd] = value
                rready[rd] = cycle + 1
            core.pc += 4
            finish(cycle)
        return uop

    imm_form = mn in _IMM_TO_ALU
    base_mn = _IMM_TO_ALU.get(mn, mn)
    iclass = instr.iclass
    if iclass is InstrClass.INT_MUL:
        latency = core.cfg.int_mul_latency
        op = lambda a, b: IntCore._mul(base_mn, a, b)    # noqa: E731
    elif iclass is InstrClass.INT_DIV:
        latency = core.cfg.int_div_latency
        op = lambda a, b: IntCore._div(base_mn, a, b)    # noqa: E731
    else:
        latency = 1
        op = _ALU_OPS[base_mn]

    if imm_form:
        def uop(cycle):
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            if rd:
                rvals[rd] = op(rvals[rs1], imm) & _MASK
                rready[rd] = cycle + latency
            core.pc += 4
            finish(cycle)
    else:
        def uop(cycle):
            if rready[rs1] > cycle or rready[rs2] > cycle:
                vals[s_haz] += 1
                return
            if rd:
                rvals[rd] = op(rvals[rs1], rvals[rs2]) & _MASK
                rready[rd] = cycle + latency
            core.pc += 4
            finish(cycle)
    return uop


def _lower_load(core, instr: Instr):
    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[mn]
    port = core.port
    vals = core.perf.values
    s_haz = _S_HAZ
    s_lsu = _S_LSU
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle:
            vals[s_haz] += 1
            return
        if port._pending is not None or port._response_ready \
                or core._pending_load_rd is not None:
            vals[s_lsu] += 1
            return
        port.request((rvals[rs1] + imm) & _MASK, width=width)
        core._pending_load_rd = rd
        core._pending_load_mn = mn
        if rd:
            rready[rd] = _NEVER
        core.pc += 4
        finish(cycle)
    return uop


def _lower_store(core, instr: Instr):
    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    width = {"sb": 1, "sh": 2, "sw": 4}[mn]
    port = core.port
    vals = core.perf.values
    s_haz = _S_HAZ
    s_lsu = _S_LSU
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle or rready[rs2] > cycle:
            vals[s_haz] += 1
            return
        if port._pending is not None or port._response_ready \
                or core._pending_load_rd is not None:
            vals[s_lsu] += 1
            return
        port.request((rvals[rs1] + imm) & _MASK, is_write=True,
                     data=rvals[rs2], width=width)
        core.pc += 4
        finish(cycle)
    return uop


def _lower_branch(core, instr: Instr):
    from repro.core.int_core import _BRANCH_OPS

    op = _BRANCH_OPS[instr.mnemonic]
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    penalty_plus_one = 1 + core.cfg.branch_penalty
    vals = core.perf.values
    s_haz = _S_HAZ
    s_taken = _S_TAKEN
    s_not = _S_NOT_TAKEN
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle or rready[rs2] > cycle:
            vals[s_haz] += 1
            return
        if op(rvals[rs1], rvals[rs2]):
            core.pc += imm
            core.stall_until = cycle + penalty_plus_one
            vals[s_taken] += 1
        else:
            core.pc += 4
            vals[s_not] += 1
        finish(cycle)
    return uop


def _lower_jump(core, instr: Instr):
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    penalty_plus_one = 1 + core.cfg.jump_penalty
    vals = core.perf.values
    s_haz = _S_HAZ
    finish = _finish(core, instr, False)

    if instr.mnemonic == "jal":
        def uop(cycle):
            if rd:
                rvals[rd] = (core.pc + 4) & _MASK
                rready[rd] = cycle + 1
            core.pc += imm
            core.stall_until = cycle + penalty_plus_one
            finish(cycle)
    else:  # jalr
        def uop(cycle):
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            target = (rvals[rs1] + imm) & ~1
            if rd:
                rvals[rd] = (core.pc + 4) & _MASK
                rready[rd] = cycle + 1
            core.pc = target
            core.stall_until = cycle + penalty_plus_one
            finish(cycle)
    return uop


def _lower_slow(core, instr: Instr):
    """CSR / Xdma / SYS: rare enough to reuse the generic executors."""
    iclass = instr.iclass
    finish = _finish(core, instr, False)

    if iclass is InstrClass.SYS:
        def uop(cycle):
            core.halted = True
            core.pc += 4
            finish(cycle)
    elif iclass is InstrClass.CSR:
        def uop(cycle):
            core._execute_csr(cycle, instr)
            core.pc += 4
            finish(cycle)
    else:  # DMA
        def uop(cycle):
            if not core._execute_dma(cycle, instr):
                return
            core.pc += 4
            finish(cycle)
    return uop


def _lower_dispatch(core, instr: Instr):
    """FP-subsystem instructions: resolve operands, enqueue, move on."""
    fp = core.fp
    queue = fp.sequencer.queue
    qdepth = core.cfg.fp_queue_depth
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    vals = core.perf.values
    s_haz = _S_HAZ
    s_disp = _S_DISP
    s_fpdisp = _S_FP_DISPATCHES
    finish = _finish(core, instr, True)
    fp_uop = lower_fp(instr, core.cfg)
    iclass = instr.iclass
    spec = instr.spec

    if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE):
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            entry = DispatchedEntry(
                instr, {"addr": (rvals[rs1] + imm) & _MASK}, False)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    if iclass is InstrClass.FREP:
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, False)
            entry.uop = fp_uop
            entry.rare = True
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    if iclass is InstrClass.SCFG:
        if instr.mnemonic == "scfgw":
            def uop(cycle):
                if len(queue) >= qdepth:
                    vals[s_disp] += 1
                    return
                if rready[rs1] > cycle or rready[rs2] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(
                    instr, {"rs1": rvals[rs1], "rs2": rvals[rs2]}, False)
                entry.uop = fp_uop
                entry.rare = True
                queue.append(entry)
                vals[s_fpdisp] += 1
                core.pc += 4
                finish(cycle)
        else:  # scfgr: result returns to the integer core
            def uop(cycle):
                if len(queue) >= qdepth:
                    vals[s_disp] += 1
                    return
                if rready[rs1] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, True)
                entry.uop = fp_uop
                entry.rare = True
                queue.append(entry)
                vals[s_fpdisp] += 1
                core.pc += 4
                finish(cycle)
                core.waiting_sync = instr
        return uop

    if iclass is InstrClass.CSR:
        reads_rs1 = spec.rs1_domain == "x" and instr.mnemonic in (
            "csrrw", "csrrs", "csrrc")
        sync = instr.rd != 0

        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if reads_rs1:
                if rready[rs1] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, sync)
            else:
                entry = DispatchedEntry(instr, _NO_VALS, sync)
            entry.uop = fp_uop
            entry.rare = True
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
            if sync:
                core.waiting_sync = instr
        return uop

    if spec.rd_domain == "x":
        # FP compare / fcvt.w.d: result returns to the integer core.
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            entry = DispatchedEntry(instr, _NO_VALS, True)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
            core.waiting_sync = instr
        return uop

    if spec.rs1_domain == "x":
        # fcvt.d.w: signed integer operand captured at dispatch.
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            value = rvals[rs1]
            if value & 0x80000000:
                value -= 1 << 32
            entry = DispatchedEntry(instr, {"rs1": value}, False)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    # Plain FP compute: no integer operands, so one immutable entry
    # serves every dispatch of this instruction.
    shared_entry = DispatchedEntry(instr, _NO_VALS, False)
    shared_entry.uop = fp_uop

    def uop(cycle):
        if len(queue) >= qdepth:
            vals[s_disp] += 1
            return
        queue.append(shared_entry)
        vals[s_fpdisp] += 1
        core.pc += 4
        finish(cycle)
    return uop


# -- FP-side lowering --------------------------------------------------------

def lower_fp(instr: Instr, cfg):
    """Lower ``instr`` into an ``issue(fp, entry, cycle)`` closure.

    The closure performs one issue attempt -- stall classification and
    accounting included -- exactly as the seed ``_issue`` in
    ``tests/oracle/`` would.  It is shared across FP
    subsystems, so per-cluster state (perf slots, streamers, chaining)
    is reached through pre-resolved attributes on ``fp``.
    """
    iclass = instr.iclass

    if iclass is InstrClass.FREP:
        def issue(fp, entry, cycle):
            seq = fp.sequencer
            seq.begin_frep(entry)
            seq.queue.popleft()
            fp._pvals[_S_FREP_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "frep")
        return issue

    if iclass is InstrClass.CSR:
        def issue(fp, entry, cycle):
            fp._apply_csr(entry)
            fp.sequencer.advance()
            fp._pvals[_S_FP_CSR_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "csr")
        return issue

    if iclass is InstrClass.SCFG:
        def issue(fp, entry, cycle):
            fp._apply_scfg(entry)
            fp.sequencer.advance()
            fp._pvals[_S_SCFG_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "scfg")
        return issue

    if iclass is InstrClass.FP_LOAD:
        return _lower_fp_load(instr)
    if iclass is InstrClass.FP_STORE:
        return _lower_fp_store(instr)
    return _lower_fp_compute(instr, cfg)


def _lower_fp_load(instr: Instr):
    dest = instr.rd

    def issue(fp, entry, cycle):
        lsu = fp.lsu
        port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or port._pending is not None or port._response_ready:
            fp.perf.stall(StallReason.LSU_BUSY)
            return
        if fp.ssr_enable and dest < fp._num_streamers:
            raise RuntimeError(
                f"fld into stream register f{dest} while SSRs are enabled")
        regs = fp.fpregs
        chain_on = fp.chain.mask >> dest & 1
        if not chain_on and regs.busy[dest]:
            fp.perf.stall(StallReason.WAW)
            return
        if not chain_on:
            regs.busy[dest] = True
        lsu.issue_load(entry.vals["addr"], dest)
        fp._advance()
        pvals = fp._pvals
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_LOADS] += 1
        if fp.trace is not None:
            fp.trace.fp_issue(cycle, instr, "load")
    return issue


def _lower_fp_store(instr: Instr):
    src = instr.rs2

    def issue(fp, entry, cycle):
        lsu = fp.lsu
        port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or port._pending is not None or port._response_ready:
            fp.perf.stall(StallReason.LSU_BUSY)
            return
        chain = fp.chain
        pvals = fp._pvals
        if fp.ssr_enable and src < fp._num_streamers:
            streamer = fp.streamers[src]
            if not streamer._fifo:
                fp.perf.stall(StallReason.SSR_EMPTY)
                return
            value = streamer.pop()
            pvals[_S_SSR_READS] += 1
        elif chain.mask >> src & 1:
            if not chain.valid[src]:
                fp.perf.stall(StallReason.CHAIN_EMPTY)
                return
            value = fp.fpregs.values[src]
            chain.note_pop(src)
            pvals[_S_CHAIN_POPS] += 1
        else:
            if fp.fpregs.busy[src]:
                fp.perf.stall(StallReason.RAW)
                return
            value = fp.fpregs.values[src]
            pvals[_S_RF_READS] += 1
        lsu.issue_store(entry.vals["addr"], value)
        fp._advance()
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_STORES] += 1
        if fp.trace is not None:
            fp.trace.fp_issue(cycle, instr, "store")
    return issue


# -- FP compute issue: generated code, specialized on operand kinds ----------
#
# Whether an FP operand is a stream (SSR), chaining or plain register
# depends on ``ssr_enable`` and ``chain_mask``, which software changes
# rarely; yet the issue attempt for a compute instruction runs every
# cycle it sits at the head of the queue.  So the issue function is
# generated source with the operand kinds resolved: each stall test,
# operand pop and counter bump is emitted only for the kinds present.
# The compiled template is cached at module level, keyed on what shapes
# the code -- the mnemonic (which fixes the executor, the sync result,
# the integer operand and the unpipelined flag), the source kinds and
# their aliasing, the destination kind, the chain push/pop mode and
# tracing -- but never on register numbers: registers, latency and pipe
# depth are bound as closure values when a template is instantiated for
# one instruction.  A kind-keyed cache compiles a handful of templates
# for a whole stencil, where a register-keyed one would compile one per
# distinct instruction.
#
# Each instance checks on entry that ``ssr_enable`` and the chain-mask
# bits of its registers still give the kinds it was built for; on a
# mismatch it hands over to its instruction's specializer, which picks
# (or builds) the instance for the current kinds and installs it on the
# entry.

#: Compiled factories, keyed by (mnemonic, source kinds, source alias
#: pattern, destination kind, concurrent push/pop, traced).  Kinds are
#: ``"S"`` stream, ``"C"`` chain, ``"R"`` register and, for the
#: destination only, ``"N"`` (the result returns to the integer core).
_COMPUTE_TEMPLATES: dict[tuple, Callable[..., Callable]] = {}

#: Globals of the generated code.
_GEN_GLOBALS = {
    "InFlightOp": InFlightOp,
    "_RAW": StallReason.RAW,
    "_WAW": StallReason.WAW,
    "_CHAIN_EMPTY": StallReason.CHAIN_EMPTY,
    "_SSR_EMPTY": StallReason.SSR_EMPTY,
    "_CHAIN_BACKPRESSURE": StallReason.CHAIN_BACKPRESSURE,
    "_FPU_BUSY": StallReason.FPU_BUSY,
}


def _lower_fp_compute(instr: Instr, cfg):
    """The specializer of ``instr``: an issue function that builds (or
    reuses) the instance for the current operand kinds, installs it on
    the entry and runs it."""
    spec = instr.spec
    mnemonic = instr.mnemonic
    arity, fn = EXECUTORS[mnemonic]
    iclass = instr.iclass
    sync = spec.rd_domain == "x"       # feq/flt/fle, fcvt.w.d
    dest = None if sync else instr.rd
    rs1_is_x = spec.rs1_domain == "x"  # fcvt.d.w reads an int operand
    srcs = tuple(reg for reg, domain in (
        (instr.rs1, spec.rs1_domain), (instr.rs2, spec.rs2_domain),
        (instr.rs3, spec.rs3_domain)) if domain == "f")
    n_operands = len(srcs) + (1 if rs1_is_x else 0)
    if n_operands != arity:  # pragma: no cover - spec table is consistent
        raise ValueError(f"{mnemonic} expects {arity} operands, got "
                         f"{n_operands}")
    alias = tuple(srcs.index(reg) for reg in srcs)
    named = srcs if dest is None else srcs + (dest,)
    all_bits = 0
    for reg in named:
        all_bits |= 1 << reg
    latency = cfg.fpu_latency[iclass]
    depth = cfg.fpu_pipe_depth
    padded = srcs + (0,) * (3 - len(srcs))
    variants: dict[tuple, Callable] = {}

    def specialize(fp, entry, cycle):
        ssr_on = bool(fp.ssr_enable)
        chain = fp.chain
        mask = chain.mask
        traced = fp.trace is not None
        vkey = (ssr_on, mask & all_bits, traced, chain.concurrent_push_pop)
        issue = variants.get(vkey)
        if issue is None:
            nstream = fp._num_streamers if ssr_on else 0

            def kind(reg):
                if reg < nstream:
                    return "S"
                return "C" if mask >> reg & 1 else "R"

            rel_mask = 0
            for reg in named:
                if kind(reg) != "S":
                    rel_mask |= 1 << reg
            key = (mnemonic, tuple(kind(reg) for reg in srcs), alias,
                   "N" if dest is None else kind(dest),
                   chain.concurrent_push_pop, traced)
            factory = _COMPUTE_TEMPLATES.get(key)
            if factory is None:
                factory = _COMPUTE_TEMPLATES[key] = _compile_compute(key)
            issue = variants[vkey] = factory(
                *padded, dest, latency, depth, fn, instr, rel_mask,
                mask & rel_mask, ssr_on, specialize)
        entry.uop = issue
        return issue(fp, entry, cycle)
    return specialize


def _compile_compute(key: tuple):
    """Compile the factory for one template key (see
    :func:`_compute_source`)."""
    namespace = dict(_GEN_GLOBALS)
    exec(compile(_compute_source(key), f"<fp-issue {key}>", "exec"),
         namespace)
    return namespace["factory"]


def _compute_source(key: tuple) -> str:
    """Source of the factory for one template key.

    The emitted issue function performs exactly the state transitions,
    stall classification and counter bumps of the seed
    ``_issue_compute`` in ``tests/oracle/`` for the
    kinds in ``key``, in the same order: chain and register stalls in
    operand order, then stream-empty, then WAW, then pipe capacity.
    """
    mnemonic, kinds, alias, dkind, concurrent, traced = key
    spec = spec_for(mnemonic)
    iclass = spec.iclass
    unpipelined = iclass in UNPIPELINED_CLASSES
    sync = dkind == "N"
    rs1_is_x = spec.rs1_domain == "x"
    first = [alias[i] == i for i in range(len(kinds))]
    chain_srcs = [f"R{i}" for i, k in enumerate(kinds)
                  if k == "C" and first[i]]
    stream_lanes = [i for i, k in enumerate(kinds)
                    if k == "S" and first[i]]
    valid = "valid" if chain_srcs else "chain.valid"
    streamers = "streamers" if stream_lanes else "fp.streamers"

    out = ["def factory(R0, R1, R2, D, LAT, DEPTH, FN, INSTR, RELMASK,",
           "            RELBITS, SSR_ON, respec):",
           "    def issue(fp, entry, cycle):",
           "        chain = fp.chain",
           "        mask = chain.mask",
           "        if fp.ssr_enable != SSR_ON or mask & RELMASK != RELBITS:",
           "            return respec(fp, entry, cycle)"]
    emit = out.append

    def stall(reason, indent="        "):
        emit(f"{indent}fp.perf.stalls[{reason}] += 1")
        emit(f"{indent}return")

    if chain_srcs:
        emit("        valid = chain.valid")
    if "R" in kinds or dkind == "R":
        emit("        busy = fp.fpregs.busy")
    # Operand readiness: chain/register stalls in operand order, then
    # stream-empty (for every lane, whatever the operand order).
    for i, k in enumerate(kinds):
        if not first[i]:
            continue
        if k == "C":
            emit(f"        if not valid[R{i}]:")
            stall("_CHAIN_EMPTY", "            ")
        elif k == "R":
            emit(f"        if busy[R{i}]:")
            stall("_RAW", "            ")
    if stream_lanes:
        emit("        streamers = fp.streamers")
    for i in stream_lanes:
        need = sum(1 for j, k in enumerate(kinds)
                   if k == "S" and alias[j] == i)
        emit(f"        s{i} = streamers[R{i}]")
        if need == 1:
            emit(f"        if not s{i}._fifo:")
        else:
            emit(f"        if s{i}.available_pops() < {need}:")
        stall("_SSR_EMPTY", "            ")
    if dkind == "R":
        emit("        if busy[D]:")
        stall("_WAW", "            ")

    # Pipe capacity: the head's writeback is predicted only when the
    # pipe is full, the one case where it decides the issue.  Nothing
    # has popped a chaining register yet this cycle, so the head
    # retires into a chaining register when it is empty or when this
    # very instruction pops it.
    emit("        pipe = fp.pipe")
    emit("        in_flight = pipe.in_flight")
    emit("        if pipe._unpipelined:")
    stall("_FPU_BUSY", "            ")
    emit("        if len(in_flight) >= DEPTH:")
    emit("            op = in_flight[0]")
    emit("            if op.completes_at > cycle:")
    stall("_FPU_BUSY", "                ")
    emit("            if op.sync:")
    emit("                retires = not fp.sync_ready")
    emit("            elif op.dest_is_ssr:")
    emit(f"                s = {streamers}[op.dest]")
    emit("                retires = len(s._fifo) < s.fifo_depth")
    emit("            elif mask >> op.dest & 1:")
    if concurrent:
        test = f"not {valid}[op.dest]"
        for reg in chain_srcs:
            test += f" or op.dest == {reg}"
        emit(f"                retires = {test}")
    else:
        emit("                retires = not chain._valid_at_start[op.dest]"
             f" and not {valid}[op.dest]")
    emit("            else:")
    emit("                retires = True")
    emit("            if not retires:")
    stall("_CHAIN_BACKPRESSURE", "                ")
    emit("            if len(in_flight) > DEPTH:")
    stall("_FPU_BUSY", "                ")

    # Commit: pop/read the operands in operand order and execute.
    emit("        pvals = fp._pvals")
    if "R" in kinds or "C" in kinds:
        emit("        values = fp.fpregs.values")
    n_ssr = n_rf = 0
    for i, k in enumerate(kinds):
        if k == "S":
            lane = alias[i]
            if first[i]:
                emit(f"        f{lane} = s{lane}._fifo")
            emit(f"        v{i} = f{lane}[0]")
            emit(f"        s{lane}._to_consume -= 1")
            emit(f"        if s{lane}._rep_count >= s{lane}.cfg.repeat:")
            emit(f"            f{lane}.popleft()")
            emit(f"            s{lane}._rep_count = 0")
            emit("        else:")
            emit(f"            s{lane}._rep_count += 1")
            n_ssr += 1
        elif k == "R":
            emit(f"        v{i} = values[R{i}]")
            n_rf += 1
        elif first[i]:
            emit(f"        v{i} = values[R{i}]")
            emit(f"        valid[R{i}] = False")
            emit(f"        chain._popped_this_cycle.add(R{i})")
            emit("        chain.pops += 1")
        else:
            emit(f"        v{i} = v{alias[i]}")
    if n_ssr:
        emit(f"        pvals[{_S_SSR_READS}] += {n_ssr}")
    if chain_srcs:
        emit(f"        pvals[{_S_CHAIN_POPS}] += {len(chain_srcs)}")
    if n_rf:
        emit(f"        pvals[{_S_RF_READS}] += {n_rf}")
    args = [f"v{i}" for i in range(len(kinds))]
    if rs1_is_x:
        args.insert(0, 'float(entry.vals.get("rs1", 0))')
    emit(f"        result = FN({', '.join(args)})")
    if dkind == "R":
        emit("        busy[D] = True")
    emit("        completes = cycle + LAT")
    emit("        if completes <= pipe._last_completion:")
    emit("            completes = pipe._last_completion + 1")
    emit("        pipe._last_completion = completes")
    if unpipelined:
        emit("        pipe._unpipelined += 1")
    emit(f"        in_flight.append(InFlightOp(INSTR, {'None' if sync else 'D'}, "
         f"{dkind == 'S'}, result, completes, {sync}, {unpipelined}))")

    # Consume the entry (the sequencer's advance, inlined).
    out.extend([
        "        seq = fp.sequencer",
        "        if seq._active:",
        "            pos = seq._pos",
        "            if seq._inner:",
        "                body_idx = pos // seq._iters",
        "                iter_idx = pos % seq._iters",
        "            else:",
        "                body_idx = pos % seq._body_len",
        "                iter_idx = pos // seq._body_len",
        "            buffer = seq._buffer",
        "            if body_idx == len(buffer):",
        "                buffer.append(seq.queue.popleft())",
        "            if iter_idx > 0:",
        "                seq.replayed_instrs += 1",
        "            pos += 1",
        "            seq._pos = pos",
        "            if pos >= seq._body_len * seq._iters:",
        "                seq._active = False",
        "                seq._buffer = []",
        "                seq._stagger_cache = {}",
        "        else:",
        "            seq.queue.popleft()",
        f"        pvals[{_S_COMPUTE}] += 1",
        f"        pvals[{SLOT[f'fpu_{iclass.name.lower()}']}] += 1",
    ])
    if traced:
        emit('        fp.trace.fp_issue(cycle, INSTR, "compute")')
    emit("    return issue")
    return "\n".join(out) + "\n"
