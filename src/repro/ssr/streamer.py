"""SSR data movers (streamers).

One :class:`SsrStreamer` per lane.  A read streamer prefetches elements
along its address pattern into a small FIFO ahead of the FPU; a write
streamer drains values pushed by the FPU back to memory.  Indirect streams
additionally fetch an index element per datum through a dedicated index
port (as in the SARIS microarchitecture, where the index fetcher has its
own TCDM connection).

The register-port interface (``can_pop``/``pop``/``can_push``/``push``) is
what the FP subsystem uses at instruction issue; the FIFO being empty (or
full, for writes) is exactly the stall condition the core observes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.mem.tcdm import Tcdm, TcdmPort
from repro.ssr.address_gen import AffineGenerator, IndirectGenerator
from repro.ssr.config import SsrConfig, SsrConfigSpace, SsrMode


class SsrStreamer:
    """Data mover for one SSR lane."""

    def __init__(self, ssr_id: int, tcdm: Tcdm, fifo_depth: int = 4,
                 port_priority: int = 10):
        self.ssr_id = ssr_id
        self.fifo_depth = fifo_depth
        self.cfgspace = SsrConfigSpace(ssr_id)
        self.data_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}", port_priority, is_streamer=True)
        self.idx_port: TcdmPort = tcdm.port(
            f"ssr{ssr_id}_idx", port_priority, is_streamer=True)

        self.cfg: SsrConfig | None = None
        self._gen: AffineGenerator | None = None
        self._igen: IndirectGenerator | None = None
        self._fifo: deque[float] = deque()
        self._idx_fifo: deque[int] = deque()
        self._rep_count = 0
        self._to_consume = 0     # reads the FPU still owes us (incl. repeat)
        self._to_produce = 0     # writes the FPU still owes us
        self._data_requested = False
        self._pending_write_addr: int | None = None
        #: Per-cycle step for the armed stream's mode (bound by
        #: :meth:`_arm`); None while the lane is unarmed, when a cycle
        #: would do nothing.
        self.step: Callable[[], None] | None = None
        # Statistics (energy model inputs).
        self.active_cycles = 0
        self.elements_moved = 0

    # -- configuration ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while an armed stream has work left."""
        if self.cfg is None:
            return False
        return not self.done

    @property
    def done(self) -> bool:
        """True when the armed stream has fully completed."""
        if self.cfg is None:
            return True
        if self.cfg.mode == SsrMode.READ:
            return self._to_consume == 0
        return (self._to_produce == 0 and not self._fifo
                and not self.data_port.busy
                and self._pending_write_addr is None)

    def write_cfg(self, field: int, value: int) -> None:
        """Handle a ``scfgw`` targeting this lane."""
        self.cfgspace.write(field, value, active=self.active)
        if self.cfgspace.committed is not None:
            self._arm(self.cfgspace.committed)
            self.cfgspace.committed = None

    def read_cfg(self, field: int) -> int:
        """Handle a ``scfgr`` targeting this lane."""
        return self.cfgspace.read(field)

    def _arm(self, cfg: SsrConfig) -> None:
        self.cfg = cfg
        self._fifo.clear()
        self._idx_fifo.clear()
        self._rep_count = 0
        self._data_requested = False
        self._pending_write_addr = None
        total = cfg.total_elements()
        if cfg.indirect:
            self._igen = IndirectGenerator(cfg)
            self._gen = None
        else:
            self._gen = AffineGenerator(cfg)
            self._igen = None
        if cfg.mode == SsrMode.READ:
            self._to_consume = total * (cfg.repeat + 1)
            self._to_produce = 0
            self.step = self._step_read_indirect if cfg.indirect \
                else self._step_read_affine
        else:
            self._to_produce = total
            self._to_consume = 0
            self.step = self._step_write_indirect if cfg.indirect \
                else self._step_write_affine

    # -- register-port interface (used at FP instruction issue) -----------

    def can_pop(self) -> bool:
        """True when a read of the stream register would not stall."""
        return bool(self._fifo)

    def available_pops(self) -> int:
        """How many register reads could be served right now.

        Accounts for the repeat feature: the FIFO head still serves
        ``repeat + 1 - rep_count`` reads.  Needed when one instruction
        reads the same stream register in two operand positions.
        """
        if not self._fifo:
            return 0
        head_left = self.cfg.repeat + 1 - self._rep_count
        return head_left + (len(self._fifo) - 1) * (self.cfg.repeat + 1)

    def pop(self) -> float:
        """Consume one element (a register read).  Honors ``repeat``."""
        if not self._fifo:
            raise RuntimeError(f"ssr{self.ssr_id}: pop from empty stream")
        value = self._fifo[0]
        self._rep_count += 1
        self._to_consume -= 1
        if self._rep_count > self.cfg.repeat:
            self._fifo.popleft()
            self._rep_count = 0
        return value

    def can_push(self) -> bool:
        """True when a write to the stream register would not stall."""
        return len(self._fifo) < self.fifo_depth

    def push(self, value: float) -> None:
        """Produce one element (a register write)."""
        if len(self._fifo) >= self.fifo_depth:
            raise RuntimeError(f"ssr{self.ssr_id}: push to full stream FIFO")
        self._fifo.append(value)
        self._to_produce -= 1

    # -- per-cycle behaviour -------------------------------------------------

    # Per-cycle paths: one method per (mode, addressing) pair, bound to
    # ``step`` by :meth:`_arm` so the mode is never re-tested.  Each
    # retires a granted response, then launches the next data and (for
    # indirect streams) index fetch, posting requests directly instead
    # of through the checked :meth:`~repro.mem.tcdm.TcdmPort.request`
    # interface -- every guard that path enforces is established inline.

    def _step_read_affine(self) -> None:
        port = self.data_port
        worked = False
        fifo = self._fifo
        if port._response_ready:
            port._response_ready = False
            fifo.append(float(port._response))
            port._response = None
            self._data_requested = False
            self.elements_moved += 1
            worked = True
        if port._pending is None and not port._response_ready \
                and self.fifo_depth - len(fifo) \
                - (1 if self._data_requested else 0) > 0:
            gen = self._gen
            if gen._remaining:
                port._pending = (gen.next(), False, None, 8)
                self._data_requested = True
                worked = True
        if worked:
            self.active_cycles += 1

    def _step_read_indirect(self) -> None:
        port = self.data_port
        iport = self.idx_port
        idx_fifo = self._idx_fifo
        worked = False
        fifo = self._fifo
        if port._response_ready:
            port._response_ready = False
            fifo.append(float(port._response))
            port._response = None
            self._data_requested = False
            self.elements_moved += 1
            worked = True
        if iport._response_ready:
            iport._response_ready = False
            idx_fifo.append(int(iport._response))
            iport._response = None
            worked = True
        if idx_fifo and port._pending is None \
                and not port._response_ready \
                and self.fifo_depth - len(fifo) \
                - (1 if self._data_requested else 0) > 0:
            cfg = self.cfg
            port._pending = (cfg.base + (idx_fifo.popleft()
                                         << cfg.idx_shift),
                             False, None, 8)
            self._data_requested = True
            worked = True
        igen = self._igen
        if igen._pos < igen._count and iport._pending is None \
                and not iport._response_ready \
                and len(idx_fifo) < self.fifo_depth:
            cfg = self.cfg
            idx_size = cfg.idx_size
            iport._pending = (cfg.idx_base + igen._pos * idx_size, False,
                              None, idx_size)
            igen._pos += 1
            worked = True
        if worked:
            self.active_cycles += 1

    def _step_write_affine(self) -> None:
        port = self.data_port
        worked = False
        fifo = self._fifo
        if port._response_ready:
            port._response_ready = False
            port._response = None
            fifo.popleft()
            self._pending_write_addr = None
            self.elements_moved += 1
            worked = True
        if fifo and port._pending is None and not port._response_ready:
            addr = self._pending_write_addr
            if addr is None:
                gen = self._gen
                if gen._remaining:
                    addr = self._pending_write_addr = gen.next()
            if addr is not None:
                port._pending = (addr, True, fifo[0], 8)
                worked = True
        if worked:
            self.active_cycles += 1

    def _step_write_indirect(self) -> None:
        port = self.data_port
        iport = self.idx_port
        idx_fifo = self._idx_fifo
        worked = False
        fifo = self._fifo
        if port._response_ready:
            port._response_ready = False
            port._response = None
            fifo.popleft()
            self._pending_write_addr = None
            self.elements_moved += 1
            worked = True
        if iport._response_ready:
            iport._response_ready = False
            idx_fifo.append(int(iport._response))
            iport._response = None
            worked = True
        if fifo and port._pending is None and not port._response_ready:
            addr = self._pending_write_addr
            if addr is None and idx_fifo:
                cfg = self.cfg
                addr = self._pending_write_addr = \
                    cfg.base + (idx_fifo.popleft() << cfg.idx_shift)
            if addr is not None:
                port._pending = (addr, True, fifo[0], 8)
                worked = True
        igen = self._igen
        if igen._pos < igen._count and iport._pending is None \
                and not iport._response_ready \
                and len(idx_fifo) < self.fifo_depth:
            cfg = self.cfg
            idx_size = cfg.idx_size
            iport._pending = (cfg.idx_base + igen._pos * idx_size, False,
                              None, idx_size)
            igen._pos += 1
            worked = True
        if worked:
            self.active_cycles += 1

