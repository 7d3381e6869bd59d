"""The decoupled FP subsystem: sequencer, FPU pipe, FP LSU, SSRs, chaining.

Per-cycle phase order (one :meth:`FpSubsystem.step` call):

1. ``chain.begin_cycle`` -- reset same-cycle pop bookkeeping.
2. FP LSU response handling (commits deferred to after issue).
3. **Issue**: at most one instruction from the sequencer, evaluated
   against the *start-of-cycle* register state.  Reads of chaining and
   stream registers pop here.
4. **Writeback**: the pipe head, if complete, attempts writeback.  Plain
   registers always accept (value readable next cycle); stream registers
   accept while the write FIFO has room; chaining registers accept only
   when their valid bit is clear -- possibly cleared by a pop in phase 3
   of this same cycle (``chain_concurrent_push_pop``).  A refused
   writeback freezes the in-order pipe: backpressure.

Because writeback happens after issue, a value written back in cycle *t*
is first readable in cycle *t+1*; a dependent instruction therefore issues
``latency + 1`` cycles after its producer, wasting ``latency`` issue slots
-- the three wasted cycles of the paper's Fig. 1a for Snitch's 3-stage
FMA pipeline.
"""

from __future__ import annotations

from repro.core.chaining import ChainController
from repro.core.config import CoreConfig
from repro.core.fpu import FpuPipe
from repro.core.lsu import FpLsu
from repro.core.perf import SLOT, PerfCounters, StallReason
from repro.core.regfile import FpRegFile
from repro.core.sequencer import DispatchedEntry, Sequencer
from repro.isa.csr import CSR
from repro.isa.instructions import Instr
from repro.mem.tcdm import Tcdm
from repro.ssr.config import split_cfg_addr
from repro.ssr.streamer import SsrStreamer


_S_RF_WRITES = SLOT["fp_rf_writes"]
_S_CHAIN_PUSHES = SLOT["chain_pushes"]
_S_SSR_WRITES = SLOT["ssr_reg_writes"]


class FpSubsystem:
    """Snitch's FP half: everything behind the FP instruction queue."""

    def __init__(self, cfg: CoreConfig, tcdm: Tcdm, perf: PerfCounters,
                 trace=None):
        self.cfg = cfg
        self.perf = perf
        self.trace = trace
        self.chain = ChainController(
            concurrent_push_pop=cfg.chain_concurrent_push_pop)
        self.fpregs = FpRegFile(self.chain)
        self.pipe = FpuPipe(cfg)
        self.sequencer = Sequencer(cfg)
        self.lsu = FpLsu(tcdm.port("fplsu", priority=1), self.fpregs)
        self.streamers = [
            SsrStreamer(i, tcdm, cfg.ssr_fifo_depth)
            for i in range(cfg.num_ssrs)
        ]
        self.ssr_enable = False
        self.fpmode = 0
        # Synchronization channel back to the integer core.
        self.sync_ready = False
        self._sync_value: int = 0
        # Structural constants used by the micro-op issue path; the
        # counter slots themselves are the module-level ``SLOT``
        # constants shared by the lowered closures.
        self._pvals = perf.values
        self._num_streamers = len(self.streamers)
        self._pipe_depth = cfg.fpu_pipe_depth

    # -- int-core interface ---------------------------------------------------

    def queue_space(self) -> int:
        return self.sequencer.space()

    def take_sync(self) -> int:
        """Consume a pending synchronization result."""
        if not self.sync_ready:
            raise RuntimeError("no sync result pending")
        self.sync_ready = False
        return self._sync_value

    def _deliver_sync(self, value: int | float) -> None:
        if isinstance(value, float):
            value = int(value) if value == int(value) else 0
        self._sync_value = value & 0xFFFFFFFF
        self.sync_ready = True

    @property
    def idle(self) -> bool:
        """No queued, in-flight or pending work remains."""
        return (self.sequencer.idle and self.pipe.empty
                and not self.lsu.busy and not self.sync_ready)

    def streamers_done(self) -> bool:
        return all(s.done for s in self.streamers)

    # -- helpers ----------------------------------------------------------------

    def _is_stream_reg(self, reg: int) -> bool:
        return self.ssr_enable and reg < len(self.streamers)

    def _fp_sources(self, instr: Instr) -> list[int]:
        """FP source register numbers of ``instr``, in operand order."""
        spec = instr.spec
        sources = []
        if spec.rs1_domain == "f":
            sources.append(instr.rs1)
        if spec.rs2_domain == "f":
            sources.append(instr.rs2)
        if spec.rs3_domain == "f":
            sources.append(instr.rs3)
        return sources

    def _sources_ready(self, sources: list[int]) -> StallReason:
        """Check operand readiness; returns NONE when all can be read."""
        ssr_needed: dict[int, int] = {}
        for reg in sources:
            if self._is_stream_reg(reg):
                ssr_needed[reg] = ssr_needed.get(reg, 0) + 1
            elif self.chain.enabled(reg):
                if not self.chain.can_pop(reg):
                    return StallReason.CHAIN_EMPTY
            elif self.fpregs.busy[reg]:
                return StallReason.RAW
        for reg, count in ssr_needed.items():
            if self.streamers[reg].available_pops() < count:
                return StallReason.SSR_EMPTY
        return StallReason.NONE

    # -- the cycle ------------------------------------------------------------

    def step(self, cycle: int) -> None:
        """Advance by one cycle through the phases above, with the
        per-cycle no-op calls compiled down to attribute tests."""
        chain = self.chain
        if chain._popped_this_cycle:
            chain._popped_this_cycle.clear()
        if not chain.concurrent_push_pop:
            chain._valid_at_start = list(chain.valid)
        lsu = self.lsu
        lsu_port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or lsu_port._pending is not None \
                or lsu_port._response_ready:
            lsu_commits = lsu.step()
        else:
            lsu_commits = None
        # Issue phase: dispatch through the entry's lowered closure
        # (with the sequencer's FREP peek inlined, so replay cycles
        # skip the property/tuple traffic).
        seq = self.sequencer
        if not seq._active:
            queue = seq.queue
            entry = queue[0] if queue else None
        else:
            pos = seq._pos
            if seq._inner:
                body_idx = pos // seq._iters
                iter_idx = pos % seq._iters
            else:
                body_idx = pos % seq._body_len
                iter_idx = pos // seq._body_len
            buffer = seq._buffer
            if body_idx < len(buffer):
                entry = buffer[body_idx]
            elif seq.queue:
                entry = seq.queue[0]
            else:
                entry = None
            if entry is not None and iter_idx \
                    and seq._stagger_mask and seq._stagger_max:
                offset = iter_idx % (seq._stagger_max + 1)
                if offset:
                    key = (body_idx, offset)
                    staggered = seq._stagger_cache.get(key)
                    if staggered is None:
                        staggered = seq._staggered(entry, iter_idx)
                        seq._stagger_cache[key] = staggered
                    entry = staggered
        if entry is None:
            self.perf.stall(StallReason.QUEUE_EMPTY)
        else:
            uop = entry.uop
            if uop is None:
                from repro.core.uops import lower_fp

                uop = entry.uop = lower_fp(entry.instr, self.cfg)
            uop(self, entry, cycle)
        pipe = self.pipe
        if pipe.in_flight and pipe.in_flight[0].completes_at <= cycle:
            self._writeback(cycle)
        if lsu_commits:
            for dest, value in lsu_commits:
                if not self.fpregs.try_writeback(dest, value):
                    self.lsu.block(dest, value)
                else:
                    self._pvals[_S_RF_WRITES] += 1

    def _advance(self) -> None:
        """Consume the entry issued by a micro-op (fast non-FREP path)."""
        seq = self.sequencer
        if seq._active:
            seq.advance()
        else:
            seq.queue.popleft()

    def _writeback(self, cycle: int) -> None:
        """Writeback phase: the caller has established a complete pipe
        head.  The regfile/chain hand-offs are inlined."""
        pipe = self.pipe
        in_flight = pipe.in_flight
        op = in_flight[0]
        if op.sync:
            if self.sync_ready:
                return  # previous sync result not consumed yet
            self._deliver_sync(op.value)
        else:
            dest = op.dest
            if op.dest_is_ssr:
                streamer = self.streamers[dest]
                fifo = streamer._fifo
                if len(fifo) >= streamer.fifo_depth:
                    return  # write FIFO full: pipe stalls
                fifo.append(float(op.value))
                streamer._to_produce -= 1
                self._pvals[_S_SSR_WRITES] += 1
            else:
                chain = self.chain
                if chain.mask >> dest & 1:
                    if chain.valid[dest] and not (
                            chain.concurrent_push_pop
                            and dest in chain._popped_this_cycle) \
                            or (not chain.concurrent_push_pop
                                and chain._valid_at_start[dest]):
                        chain.backpressure_events += 1
                        return  # chaining backpressure: pipe stalls
                    self.fpregs.values[dest] = float(op.value)
                    chain.valid[dest] = True
                    chain.pushes += 1
                    self._pvals[_S_CHAIN_PUSHES] += 1
                else:
                    self.fpregs.values[dest] = float(op.value)
                    self.fpregs.busy[dest] = False
                    self._pvals[_S_RF_WRITES] += 1
        in_flight.popleft()
        if op.unpipelined:
            pipe._unpipelined -= 1

    # -- issue phase -------------------------------------------------------------

    # -- writeback phase -----------------------------------------------------

    # -- CSR / SCFG side effects --------------------------------------------

    def _read_csr(self, addr: int) -> int:
        if addr == CSR.CHAIN_MASK:
            return self.chain.read_mask()
        if addr == CSR.CHAIN_STATUS:
            return self.chain.status()
        if addr == CSR.SSR_ENABLE:
            return int(self.ssr_enable)
        if addr == CSR.FPMODE:
            return self.fpmode
        return 0

    def _write_csr(self, addr: int, value: int) -> None:
        if addr == CSR.CHAIN_MASK:
            self.chain.write_mask(value)
        elif addr == CSR.SSR_ENABLE:
            self.ssr_enable = bool(value & 1)
        elif addr == CSR.FPMODE:
            self.fpmode = value

    def _apply_csr(self, entry: DispatchedEntry) -> None:
        instr = entry.instr
        old = self._read_csr(instr.csr)
        if instr.mnemonic in ("csrrw", "csrrs", "csrrc"):
            operand = entry.vals.get("rs1", 0)
        else:
            operand = instr.imm
        if instr.mnemonic in ("csrrw", "csrrwi"):
            new = operand
            write = True
        elif instr.mnemonic in ("csrrs", "csrrsi"):
            new = old | operand
            write = operand != 0
        else:
            new = old & ~operand
            write = operand != 0
        if write:
            self._write_csr(instr.csr, new)
        if entry.sync:
            self._deliver_sync(old)

    def _apply_scfg(self, entry: DispatchedEntry) -> None:
        instr = entry.instr
        if instr.mnemonic == "scfgw":
            ssr, cfg_field = split_cfg_addr(entry.vals["rs2"])
            self._check_ssr_index(ssr)
            self.streamers[ssr].write_cfg(cfg_field, entry.vals["rs1"])
        else:  # scfgr
            ssr, cfg_field = split_cfg_addr(entry.vals["rs1"])
            self._check_ssr_index(ssr)
            self._deliver_sync(self.streamers[ssr].read_cfg(cfg_field))

    def _check_ssr_index(self, ssr: int) -> None:
        if not 0 <= ssr < len(self.streamers):
            raise RuntimeError(f"scfg access to nonexistent ssr{ssr}")

