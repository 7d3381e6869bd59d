"""The frozen seed interpreter: the differential oracle.

The cycle-accurate engines in ``src/`` (scalar-v2 micro-ops, the
compiled cycle loop and the vectorized FREP/SSR fast path) must match this
model in every architecturally visible quantity.  It is the original
per-cycle interpreter, kept verbatim and never optimized: each function
below is the body of the seed method it is named after, with ``self``
the shipped component object it runs over.  Nothing in ``repro`` imports
this package.

Entry points:

* :class:`SeedCluster` (or :func:`engine_cluster` with :data:`ORACLE`)
  -- a :class:`~repro.core.cluster.Cluster` stepped by the seed loop;
* :func:`seed_system` -- a :class:`~repro.system.System` whose clusters
  all run the seed loop;
* :func:`backends` -- runs the ``repro.eval`` execute functions on the
  oracle;
* :func:`core_step`, :func:`fp_step`, :func:`streamer_step` and
  :func:`arbitrate` -- the per-component seed steps, for unit tests that
  drive a single streamer or TCDM.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.core.cluster import Cluster
from repro.core.fp_subsystem import FpSubsystem
from repro.core.fpu import execute_fp
from repro.core.int_core import _ALU_OPS, _BRANCH_OPS, _IMM_TO_ALU, IntCore
from repro.core.perf import StallReason
from repro.core.sequencer import DispatchedEntry
from repro.core.uops import _NEVER
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import Instr, InstrClass
from repro.mem.tcdm import Tcdm, TcdmPort
from repro.ssr.config import SsrMode
from repro.ssr.streamer import SsrStreamer
from repro.system import System

__all__ = ["ORACLE", "ORACLE_FAST", "SeedCluster", "arbitrate", "backends",
           "core_step", "engine_cluster", "fp_step", "seed_system",
           "streamer_step"]

#: Engine names of the oracle in the differential tests: the seed loop
#: alone, and the seed loop with the vectorized fast path attached --
#: the engines ``"scalar"`` and ``"fast"`` that ``repro`` shipped up to
#: 1.9 and that now exist only here.
ORACLE = "scalar"
ORACLE_FAST = "fast"

#: ``CoreConfig.engine`` each oracle engine runs its clusters with: the
#: fast path is attached exactly when the config says ``"auto"``.
_CFG_ENGINE = {ORACLE: "scalar-v2", ORACLE_FAST: "auto"}


class SeedCluster(Cluster):
    """A cluster stepped cycle by cycle by the seed interpreter (with the
    fast path attached when its config's engine is ``"auto"``)."""

    def step(self) -> None:
        """Advance the whole cluster by one cycle (seed loop)."""
        for fp, core in zip(self.fps, self.cores):
            fp_step(fp, self.cycle)
            core_step(core, self.cycle)
            for streamer in fp.streamers:
                streamer_step(streamer)
        self._release_barrier()
        self.dma.step()
        arbitrate(self.tcdm)
        self.cycle += 1
        self.perf.cycles = self.cycle
        if self.fastpath is not None:
            self.fastpath.observe()


def engine_cluster(engine: str) -> tuple[type[Cluster], str]:
    """``(cluster class, CoreConfig.engine)`` for an engine name, where
    :data:`ORACLE` and :data:`ORACLE_FAST` select :class:`SeedCluster`."""
    if engine in _CFG_ENGINE:
        return SeedCluster, _CFG_ENGINE[engine]
    return Cluster, engine


def seed_system(*args, **kwargs) -> System:
    """A :class:`~repro.system.System` (same arguments) whose clusters
    all run the seed interpreter."""
    system = System(*args, **kwargs)
    for cluster in system.clusters:
        cluster.__class__ = SeedCluster
    return system


@contextlib.contextmanager
def backends(engine: str) -> Iterator[str]:
    """Run the ``repro.eval`` backends on ``engine``; yields the
    ``CoreConfig.engine`` to pass them.

    For an oracle engine, ``execute_build``/``execute_stencil`` and
    ``execute_system_stencil`` build seed clusters and systems until the
    block exits; any other engine runs unchanged.
    """
    make, cfg_engine = engine_cluster(engine)
    if make is Cluster:
        yield cfg_engine
        return
    from repro.eval import runner, system_runner

    saved = runner.Cluster, system_runner.System
    runner.Cluster, system_runner.System = SeedCluster, seed_system
    try:
        yield cfg_engine
    finally:
        runner.Cluster, system_runner.System = saved


# -- IntCore ---------------------------------------------------------------


def core_step(self: IntCore, cycle: int) -> None:
    """Seed ``IntCore.step``."""
    self._collect_load(cycle)
    if self.halted:
        return
    if self.barrier_wait:
        self.perf.bump("int_barrier_stalls")
        return
    if self.waiting_sync is not None:
        if self.fp.sync_ready:
            value = self.fp.take_sync()
            instr = self.waiting_sync
            if instr.rd:
                self.regs.write(instr.rd, value, ready_cycle=cycle + 1)
            self.waiting_sync = None
        else:
            self.perf.bump("int_sync_stalls")
        return
    if cycle < self.stall_until:
        return
    instr = self._fetch()
    if instr is None:
        raise RuntimeError(
            f"integer core fell off the program at pc={self.pc:#x}; "
            f"terminate programs with ebreak"
        )
    if instr.is_fp or (instr.iclass is InstrClass.CSR
                       and is_fp_csr(instr.csr)):
        _dispatch_fp(self, cycle, instr)
        return
    _execute_int(self, cycle, instr)


def _dispatch_fp(self: IntCore, cycle: int, instr: Instr) -> None:
    if self.fp.queue_space() <= 0:
        self.perf.bump("int_dispatch_stalls")
        return
    vals: dict[str, int] = {}
    sync = False
    iclass = instr.iclass
    spec = instr.spec

    if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE):
        if not self._ready(cycle, instr.rs1):
            self.perf.bump("int_hazard_stalls")
            return
        vals["addr"] = (self.regs.read(instr.rs1) + instr.imm) \
            & 0xFFFFFFFF
    elif iclass is InstrClass.FREP:
        if not self._ready(cycle, instr.rs1):
            self.perf.bump("int_hazard_stalls")
            return
        vals["rs1"] = self.regs.read(instr.rs1)
    elif iclass is InstrClass.SCFG:
        if instr.mnemonic == "scfgw":
            if not self._ready(cycle, instr.rs1, instr.rs2):
                self.perf.bump("int_hazard_stalls")
                return
            vals["rs1"] = self.regs.read(instr.rs1)
            vals["rs2"] = self.regs.read(instr.rs2)
        else:
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            vals["rs1"] = self.regs.read(instr.rs1)
            sync = True
    elif iclass is InstrClass.CSR:
        if spec.rs1_domain == "x" and instr.mnemonic in (
                "csrrw", "csrrs", "csrrc"):
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            vals["rs1"] = self.regs.read(instr.rs1)
        sync = instr.rd != 0
    elif spec.rd_domain == "x":
        # FP compare / fcvt.w.d: result returns to the integer core.
        sync = True
    elif spec.rs1_domain == "x":
        # fcvt.d.w: signed integer operand captured at dispatch.
        if not self._ready(cycle, instr.rs1):
            self.perf.bump("int_hazard_stalls")
            return
        vals["rs1"] = self.regs.read_signed(instr.rs1)

    _fp_dispatch(self.fp, DispatchedEntry(instr, vals, sync))
    self.perf.bump("int_instrs")
    if self.trace is not None:
        self.trace.int_issue(cycle, instr, dispatched=True)
    self.pc += 4
    if sync:
        self.waiting_sync = instr


def _execute_int(self: IntCore, cycle: int, instr: Instr) -> None:
    mn = instr.mnemonic
    iclass = instr.iclass
    regs = self.regs

    if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                  InstrClass.INT_DIV):
        if not _execute_alu(self, cycle, instr):
            return
    elif iclass is InstrClass.LOAD:
        if not self._ready(cycle, instr.rs1):
            self.perf.bump("int_hazard_stalls")
            return
        if self.port.busy or self._pending_load_rd is not None:
            self.perf.bump("int_lsu_stalls")
            return
        addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
        width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[mn]
        self.port.request(addr, width=width)
        self._pending_load_rd = instr.rd
        self._pending_load_mn = mn
        regs.set_ready(instr.rd, _NEVER)
        self.pc += 4
    elif iclass is InstrClass.STORE:
        if not self._ready(cycle, instr.rs1, instr.rs2):
            self.perf.bump("int_hazard_stalls")
            return
        if self.port.busy or self._pending_load_rd is not None:
            self.perf.bump("int_lsu_stalls")
            return
        addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
        width = {"sb": 1, "sh": 2, "sw": 4}[mn]
        self.port.request(addr, is_write=True, data=regs.read(instr.rs2),
                          width=width)
        self.pc += 4
    elif iclass is InstrClass.BRANCH:
        if not self._ready(cycle, instr.rs1, instr.rs2):
            self.perf.bump("int_hazard_stalls")
            return
        taken = _BRANCH_OPS[mn](regs.read(instr.rs1),
                                regs.read(instr.rs2))
        if taken:
            self.pc += instr.imm
            self.stall_until = cycle + 1 + self.cfg.branch_penalty
            self.perf.bump("branches_taken")
        else:
            self.pc += 4
            self.perf.bump("branches_not_taken")
    elif iclass is InstrClass.JUMP:
        if mn == "jal":
            regs.write(instr.rd, self.pc + 4, ready_cycle=cycle + 1)
            self.pc += instr.imm
        else:  # jalr
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            target = (regs.read(instr.rs1) + instr.imm) & ~1
            regs.write(instr.rd, self.pc + 4, ready_cycle=cycle + 1)
            self.pc = target
        self.stall_until = cycle + 1 + self.cfg.jump_penalty
    elif iclass is InstrClass.CSR:
        self._execute_csr(cycle, instr)
        self.pc += 4
    elif iclass is InstrClass.DMA:
        if not self._execute_dma(cycle, instr):
            return
        self.pc += 4
    elif iclass is InstrClass.SYS:
        self.halted = True
        self.pc += 4
    else:  # pragma: no cover
        raise RuntimeError(f"integer core cannot execute {mn}")

    self.perf.bump("int_instrs")
    if self.trace is not None:
        self.trace.int_issue(cycle, instr, dispatched=False)


def _execute_alu(self: IntCore, cycle: int, instr: Instr) -> bool:
    mn = instr.mnemonic
    regs = self.regs
    if mn in ("lui", "auipc"):
        value = (instr.imm << 12) & 0xFFFFFFFF
        if mn == "auipc":
            value = (value + self.pc) & 0xFFFFFFFF
        regs.write(instr.rd, value, ready_cycle=cycle + 1)
        self.pc += 4
        return True
    if not self._ready(cycle, instr.rs1):
        self.perf.bump("int_hazard_stalls")
        return False
    a = regs.read(instr.rs1)
    if mn in _IMM_TO_ALU:
        b = instr.imm
        base_mn = _IMM_TO_ALU[mn]
    else:
        if not self._ready(cycle, instr.rs2):
            self.perf.bump("int_hazard_stalls")
            return False
        b = regs.read(instr.rs2)
        base_mn = mn

    latency = 1
    if instr.iclass is InstrClass.INT_MUL:
        latency = self.cfg.int_mul_latency
        result = self._mul(base_mn, a, b)
    elif instr.iclass is InstrClass.INT_DIV:
        latency = self.cfg.int_div_latency
        result = self._div(base_mn, a, b)
    else:
        result = _ALU_OPS[base_mn](a, b)
    regs.write(instr.rd, result & 0xFFFFFFFF,
               ready_cycle=cycle + latency)
    self.pc += 4
    return True


# -- FpSubsystem -----------------------------------------------------------


def _fp_dispatch(self: FpSubsystem, entry: DispatchedEntry) -> None:
    self.sequencer.dispatch(entry)
    self.perf.bump("fp_dispatches")


def _read_sources(self: FpSubsystem, sources: list[int]) -> list[float]:
    """Read (and pop) the operands.

    A chaining register named in several operand positions of one
    instruction is popped *once* -- the architectural register has a
    single read port and all positions see the same value.  Stream
    registers, by contrast, pop once per operand position (each read
    port of the FPU consumes a stream element, as on Snitch).
    """
    values = []
    chain_seen: dict[int, float] = {}
    for reg in sources:
        if self._is_stream_reg(reg):
            values.append(self.streamers[reg].pop())
            self.perf.bump("ssr_reg_reads")
        elif self.chain.enabled(reg):
            if reg not in chain_seen:
                chain_seen[reg] = self.fpregs.read(reg)
                self.perf.bump("chain_pops")
            values.append(chain_seen[reg])
        else:
            values.append(self.fpregs.read(reg))
            self.perf.bump("fp_rf_reads")
    return values


def _candidate_pops(self: FpSubsystem, sources: list[int]) -> set[int]:
    """Chaining registers the candidate instruction would pop."""
    return {reg for reg in sources
            if not self._is_stream_reg(reg) and self.chain.enabled(reg)}


def _wb_would_accept(self: FpSubsystem, cycle: int,
                     candidate_pops: set[int]) -> bool:
    """Predict whether the head writeback succeeds this cycle."""
    if not self.pipe.head_complete(cycle):
        return False
    op = self.pipe.head()
    if op.sync:
        return not self.sync_ready
    if op.dest_is_ssr:
        return self.streamers[op.dest].can_push()
    if self.chain.enabled(op.dest):
        if self.chain.can_push(op.dest):
            return True
        return (self.chain.concurrent_push_pop
                and op.dest in candidate_pops)
    return True


def fp_step(self: FpSubsystem, cycle: int) -> None:
    """Seed ``FpSubsystem.step``."""
    self.chain.begin_cycle()
    lsu_commits = self.lsu.step()
    _issue(self, cycle)
    _writeback(self, cycle)
    for dest, value in lsu_commits:
        if not self.fpregs.try_writeback(dest, value):
            self.lsu.block(dest, value)
        else:
            self.perf.bump("fp_rf_writes")


def _issue(self: FpSubsystem, cycle: int) -> None:
    entry = self.sequencer.peek()
    if entry is None:
        self.perf.stall(StallReason.QUEUE_EMPTY)
        return
    instr = entry.instr
    iclass = instr.iclass

    if iclass is InstrClass.FREP:
        # Arm the replay engine, then drop the frep instruction itself
        # (begin_frep only reads it; the body follows in the queue).
        self.sequencer.begin_frep(entry)
        self.sequencer.queue.popleft()
        self.perf.bump("frep_ops")
        _trace_issue(self, cycle, instr, "frep")
        return

    if iclass is InstrClass.CSR:
        self._apply_csr(entry)
        self.sequencer.advance()
        self.perf.bump("fp_csr_ops")
        _trace_issue(self, cycle, instr, "csr")
        return

    if iclass is InstrClass.SCFG:
        self._apply_scfg(entry)
        self.sequencer.advance()
        self.perf.bump("scfg_ops")
        _trace_issue(self, cycle, instr, "scfg")
        return

    if iclass is InstrClass.FP_LOAD:
        _issue_load(self, cycle, entry)
        return

    if iclass is InstrClass.FP_STORE:
        _issue_store(self, cycle, entry)
        return

    _issue_compute(self, cycle, entry)


def _issue_load(self: FpSubsystem, cycle: int,
                entry: DispatchedEntry) -> None:
    instr = entry.instr
    if self.lsu.busy:
        self.perf.stall(StallReason.LSU_BUSY)
        return
    dest = instr.rd
    if self._is_stream_reg(dest):
        raise RuntimeError(
            f"fld into stream register f{dest} while SSRs are enabled")
    if not self.fpregs.can_write(dest):
        self.perf.stall(StallReason.WAW)
        return
    self.fpregs.allocate(dest)
    self.lsu.issue_load(entry.vals["addr"], dest)
    self.sequencer.advance()
    self.perf.bump("fp_lsu_ops")
    self.perf.bump("fp_loads")
    _trace_issue(self, cycle, instr, "load")


def _issue_store(self: FpSubsystem, cycle: int,
                 entry: DispatchedEntry) -> None:
    instr = entry.instr
    if self.lsu.busy:
        self.perf.stall(StallReason.LSU_BUSY)
        return
    src = instr.rs2
    reason = self._sources_ready([src])
    if reason is not StallReason.NONE:
        self.perf.stall(reason)
        return
    value = _read_sources(self, [src])[0]
    self.lsu.issue_store(entry.vals["addr"], value)
    self.sequencer.advance()
    self.perf.bump("fp_lsu_ops")
    self.perf.bump("fp_stores")
    _trace_issue(self, cycle, instr, "store")


def _issue_compute(self: FpSubsystem, cycle: int,
                   entry: DispatchedEntry) -> None:
    instr = entry.instr
    spec = instr.spec
    sources = self._fp_sources(instr)
    reason = self._sources_ready(sources)
    if reason is not StallReason.NONE:
        self.perf.stall(reason)
        return

    sync = spec.rd_domain == "x"       # feq/flt/fle, fcvt.w.d
    dest = None if sync else instr.rd
    dest_is_ssr = dest is not None and self._is_stream_reg(dest)
    if dest is not None and not dest_is_ssr:
        if not self.fpregs.can_write(dest):
            self.perf.stall(StallReason.WAW)
            return

    candidate_pops = _candidate_pops(self, sources)
    head_retires = _wb_would_accept(self, cycle, candidate_pops)
    if not self.pipe.can_accept(cycle, instr.iclass, head_retires):
        if (self.pipe.head_complete(cycle) and not head_retires
                and not self.pipe.has_unpipelined_in_flight()):
            self.perf.stall(StallReason.CHAIN_BACKPRESSURE)
        else:
            self.perf.stall(StallReason.FPU_BUSY)
        return

    # Commit the issue: pop/read operands and execute.
    operand_values: list[float] = []
    source_iter = iter(_read_sources(self, sources))
    if spec.rs1_domain == "x":          # fcvt.d.w reads an int operand
        operand_values.append(float(entry.vals.get("rs1", 0)))
    elif spec.rs1_domain == "f":
        operand_values.append(next(source_iter))
    if spec.rs2_domain == "f":
        operand_values.append(next(source_iter))
    if spec.rs3_domain == "f":
        operand_values.append(next(source_iter))

    result = execute_fp(instr.mnemonic, operand_values)
    if dest is not None and not dest_is_ssr:
        self.fpregs.allocate(dest)
    self.pipe.issue(instr, dest, dest_is_ssr, result, cycle, sync)
    self.sequencer.advance()
    self.perf.bump("fpu_compute_ops")
    self.perf.bump(f"fpu_{instr.iclass.name.lower()}")
    _trace_issue(self, cycle, instr, "compute")


def _writeback(self: FpSubsystem, cycle: int) -> None:
    if not self.pipe.head_complete(cycle):
        return
    op = self.pipe.head()
    if op.sync:
        if self.sync_ready:
            return  # previous sync result not consumed yet
        self._deliver_sync(op.value)
        self.pipe.retire_head()
        return
    if op.dest_is_ssr:
        streamer = self.streamers[op.dest]
        if not streamer.can_push():
            return  # write FIFO full: pipe stalls
        streamer.push(float(op.value))
        self.perf.bump("ssr_reg_writes")
        self.pipe.retire_head()
        return
    if not self.fpregs.try_writeback(op.dest, float(op.value)):
        return  # chaining backpressure: pipe stalls
    if self.chain.enabled(op.dest):
        self.perf.bump("chain_pushes")
    else:
        self.perf.bump("fp_rf_writes")
    self.pipe.retire_head()


def _trace_issue(self: FpSubsystem, cycle: int, instr: Instr,
                 kind: str) -> None:
    if self.trace is not None:
        self.trace.fp_issue(cycle, instr, kind)


# -- SsrStreamer -----------------------------------------------------------


def streamer_step(self: SsrStreamer) -> None:
    """Seed ``SsrStreamer.step``: advance the data mover by one cycle."""
    if self.cfg is None:
        return
    worked = False
    if self.cfg.mode == SsrMode.READ:
        worked = _step_read(self)
    else:
        worked = _step_write(self)
    if worked:
        self.active_cycles += 1


def _step_read(self: SsrStreamer) -> bool:
    worked = False
    # Retire a granted data fetch.
    if self.data_port.response_ready():
        self._fifo.append(float(self.data_port.take_response()))
        self._data_requested = False
        self.elements_moved += 1
        worked = True
    # Retire a granted index fetch.
    if self.idx_port.response_ready():
        self._idx_fifo.append(int(self.idx_port.take_response()))
        worked = True
    # Launch the next data fetch if there is FIFO headroom.
    headroom = self.fifo_depth - len(self._fifo) \
        - (1 if self._data_requested else 0)
    if headroom > 0 and not self.data_port.busy:
        addr = _next_data_addr(self)
        if addr is not None:
            self.data_port.request(addr)
            self._data_requested = True
            worked = True
    # Launch the next index fetch (indirect mode only).
    if (self._igen is not None and not self._igen.exhausted
            and not self.idx_port.busy
            and len(self._idx_fifo) < self.fifo_depth):
        self.idx_port.request(self._igen.next_index_addr(),
                              width=self.cfg.idx_size)
        worked = True
    return worked


def _next_data_addr(self: SsrStreamer) -> int | None:
    if self._igen is not None:
        if not self._idx_fifo:
            return None
        return self._igen.data_addr(self._idx_fifo.popleft())
    if self._gen.exhausted:
        return None
    return self._gen.next()


def _step_write(self: SsrStreamer) -> bool:
    worked = False
    # Retire a granted write.
    if self.data_port.response_ready():
        self.data_port.take_response()
        self._fifo.popleft()
        self._pending_write_addr = None
        self.elements_moved += 1
        worked = True
    # Retire a granted index fetch (indirect scatter).
    if self.idx_port.response_ready():
        self._idx_fifo.append(int(self.idx_port.take_response()))
        worked = True
    # Launch the next write once its address is known; an indirect
    # stream waiting on its index still prefetches below.
    if self._fifo and not self.data_port.busy:
        if self._pending_write_addr is None:
            self._pending_write_addr = _next_data_addr(self)
        if self._pending_write_addr is not None:
            self.data_port.request(self._pending_write_addr,
                                   is_write=True, data=self._fifo[0])
            worked = True
    # Indirect scatter: keep the index FIFO fed.
    if (self._igen is not None and not self._igen.exhausted
            and not self.idx_port.busy
            and len(self._idx_fifo) < self.fifo_depth):
        self.idx_port.request(self._igen.next_index_addr(),
                              width=self.cfg.idx_size)
        worked = True
    return worked


# -- Tcdm ------------------------------------------------------------------


def arbitrate(self: Tcdm) -> None:
    """Seed ``Tcdm.arbitrate``: resolve this cycle's requests (call once
    per cycle); the shipped arbiter is grant-for-grant identical."""
    pending = [p for p in self._ports if p._pending is not None]
    if not pending:
        return
    # Static priority, with round-robin rotation among streamer ports.
    # The rotation pointer advances only on contended streamer rounds,
    # so a lone streamer keeps full bandwidth while competing ones
    # alternate.
    streamers = self._streamer_ports
    rot = {}
    if streamers:
        n = len(streamers)
        for i, p in enumerate(streamers):
            rot[p.name] = (i - self._rr_offset) % n
        contended = sum(1 for p in streamers if p._pending is not None)
        if contended >= 2:
            self._rr_offset = (self._rr_offset + 1) % n

    def key(p: TcdmPort) -> tuple[int, int]:
        return (p.priority, rot.get(p.name, 0))

    granted_banks: set[int] = set()
    for p in sorted(pending, key=key):
        bank = self.bank_of(p._pending[0])
        if bank in granted_banks:
            p.conflicts += 1
            self.total_conflicts += 1
            continue
        granted_banks.add(bank)
        p._grant(self.mem)
        self.total_accesses += 1
    self.busy_bank_cycles += len(granted_banks)
