"""Banked TCDM (L1 scratchpad) timing model.

The Snitch cluster TCDM is organized as word-interleaved SRAM banks behind
a single-cycle logarithmic interconnect.  Each bank serves one request per
cycle; concurrent requests to the same bank from different ports conflict
and all but one must retry.

Protocol (one simulated cycle):

1. During the cycle, requesters call :meth:`TcdmPort.request`.  A port can
   hold at most one outstanding request; it stays pending until granted.
2. At the end of the cycle the cluster calls :meth:`Tcdm.arbitrate`.  Per
   bank, the highest-priority pending request is granted and performed on
   the backing :class:`~repro.mem.memory.Memory`.  Losing requests remain
   pending and are retried automatically.
3. A granted read's data becomes available to the requester in the *next*
   cycle (:meth:`TcdmPort.take_response`), modelling the one-cycle SRAM
   latency.

Ports of the SSR class are arbitrated round-robin among themselves so a
pathological stream cannot starve another; LSU ports have static priority
over streamers (matching Snitch, where core requests preempt the
streamers).
"""

from __future__ import annotations

import struct

from repro.mem.memory import Memory

#: A posted request: ``(addr, is_write, data, width)``.  A plain tuple
#: keeps the per-cycle post and grant free of constructor calls.
Request = tuple[int, bool, float | int | None, int]

#: Precompiled little-endian unpackers for the read widths the grant
#: path serves inline (the same formats :class:`Memory` uses).
_UNPACK_F64 = struct.Struct("<d").unpack_from
_UNPACK_U32 = struct.Struct("<I").unpack_from


class TcdmPort:
    """One requester port into the TCDM."""

    def __init__(self, name: str, priority: int, is_streamer: bool = False):
        self.name = name
        self.priority = priority
        self.is_streamer = is_streamer
        #: Rotation index used for round-robin tie-breaking; maintained
        #: by :meth:`Tcdm.port` (the index of the *last* streamer port
        #: registered under this port's name, mirroring the name-keyed
        #: rotation table of the seed arbiter in ``tests/oracle/``).
        self._rot_index: int | None = None
        self._pending: Request | None = None
        self._response: float | int | None = None
        self._response_ready = False
        # Statistics.
        self.reads = 0
        self.writes = 0
        self.conflicts = 0

    # -- requester side ---------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while a request is pending or a response is unconsumed."""
        return self._pending is not None or self._response_ready

    def request(self, addr: int, is_write: bool = False,
                data: float | int | None = None, width: int = 8) -> None:
        """Post a request.  The port must be idle."""
        if self._pending is not None:
            raise RuntimeError(f"port {self.name} already has a pending "
                               f"request")
        if self._response_ready:
            raise RuntimeError(f"port {self.name} has an unconsumed response")
        self._pending = (addr, is_write, data, width)

    def response_ready(self) -> bool:
        """True when read data (or a write ack) is available."""
        return self._response_ready

    def take_response(self) -> float | int | None:
        """Consume the response; returns read data (None for writes)."""
        if not self._response_ready:
            raise RuntimeError(f"port {self.name} has no response")
        self._response_ready = False
        data, self._response = self._response, None
        return data

    # -- TCDM side ----------------------------------------------------------

    def _grant(self, mem: Memory) -> None:
        req = self._pending
        assert req is not None
        addr, is_write, data, width = req
        if is_write:
            if width == 8:
                if isinstance(data, float):
                    mem.write_f64(addr, data)
                else:
                    mem.write_u64(addr, int(data))
            elif width == 4:
                mem.write_u32(addr, int(data))
            elif width == 2:
                mem.write_u16(addr, int(data))
            elif width == 1:
                mem.write_u8(addr, int(data))
            else:
                raise ValueError(f"unsupported write width {width}")
            self._response = None
            self.writes += 1
        else:
            if width == 8:
                self._response = mem.read_f64(addr)
            elif width == 4:
                self._response = mem.read_u32(addr)
            elif width == 2:
                self._response = mem.read_u16(addr)
            elif width == 1:
                self._response = mem.read_u8(addr)
            else:
                raise ValueError(f"unsupported read width {width}")
            self.reads += 1
        self._pending = None
        self._response_ready = True


class Tcdm:
    """Word-interleaved banked scratchpad with per-cycle arbitration."""

    def __init__(self, mem: Memory, num_banks: int = 32,
                 bank_width: int = 8):
        if num_banks & (num_banks - 1):
            raise ValueError(f"num_banks must be a power of two, got "
                             f"{num_banks}")
        self.mem = mem
        self.num_banks = num_banks
        self.bank_width = bank_width
        self._ports: list[TcdmPort] = []
        self._streamer_ports: list[TcdmPort] = []
        self._name_to_sidx: dict[str, int] = {}
        self._rr_offset = 0
        # Statistics.
        self.total_accesses = 0
        self.total_conflicts = 0
        self.busy_bank_cycles = 0

    def port(self, name: str, priority: int,
             is_streamer: bool = False) -> TcdmPort:
        """Create and register a new requester port."""
        p = TcdmPort(name, priority, is_streamer)
        self._ports.append(p)
        if is_streamer:
            self._streamer_ports.append(p)
            self._name_to_sidx[name] = len(self._streamer_ports) - 1
            # A later streamer may shadow an earlier one's name, so the
            # rotation indices of every port are refreshed.
            for q in self._ports:
                q._rot_index = self._name_to_sidx.get(q.name)
        else:
            p._rot_index = self._name_to_sidx.get(name)
        return p

    @property
    def ports(self) -> tuple[TcdmPort, ...]:
        """All registered requester ports, in registration order."""
        return tuple(self._ports)

    @property
    def interleave_bytes(self) -> int:
        """Bytes after which the bank pattern repeats."""
        return self.num_banks * self.bank_width

    def bank_of(self, addr: int) -> int:
        """Bank index serving byte address ``addr``."""
        return (addr // self.bank_width) % self.num_banks

    def arbitrate(self) -> None:
        """Resolve this cycle's requests (call once per cycle).

        Per bank, the request with the lowest ``(priority, rotation)``
        key wins; streamer ports rotate round-robin among themselves,
        and the rotation pointer advances only on contended streamer
        rounds, so a lone streamer keeps full bandwidth while competing
        ones alternate.

        Pending ports are found without building a list, the common
        one- and two-request cycles are special-cased, and priority keys
        are only built when two requests meet on one bank: priority
        picks a conflict's winner and nothing else (requests to distinct
        banks touch distinct words, so their grant order is
        unobservable).
        """
        a = b = None
        for p in self._ports:
            if p._pending is not None:
                if a is None:
                    a = p
                elif b is None:
                    b = p
                else:
                    return self._arbitrate_many()
        if a is None:
            return
        if b is None:
            # A lone request always wins its bank, and the round-robin
            # pointer only advances on contended streamer rounds.
            _grant(a, self.mem)
            self.total_accesses += 1
            self.busy_bank_cycles += 1
            return
        off = self._rr_offset
        n = len(self._streamer_ports)
        if a.is_streamer and b.is_streamer:
            self._rr_offset = (off + 1) % n
        bw = self.bank_width
        nb = self.num_banks
        if (a._pending[0] // bw) % nb != (b._pending[0] // bw) % nb:
            mem = self.mem
            _grant(a, mem)
            _grant(b, mem)
            self.total_accesses += 2
            self.busy_bank_cycles += 2
            return
        # One bank, two requests: the priority key picks the winner.
        ra, rb = a._rot_index, b._rot_index
        if (b.priority, 0 if rb is None else (rb - off) % n) \
                < (a.priority, 0 if ra is None else (ra - off) % n):
            a, b = b, a
        _grant(a, self.mem)
        b.conflicts += 1
        self.total_conflicts += 1
        self.total_accesses += 1
        self.busy_bank_cycles += 1

    def _arbitrate_many(self) -> None:
        """:meth:`arbitrate` with three or more pending requests."""
        pending = [p for p in self._ports if p._pending is not None]
        off = self._rr_offset
        n = len(self._streamer_ports)
        contended = 0
        for p in pending:
            if p.is_streamer:
                contended += 1
        if contended >= 2:
            self._rr_offset = (off + 1) % n
        bw = self.bank_width
        nb = self.num_banks
        banks = {(p._pending[0] // bw) % nb for p in pending}
        mem = self.mem
        if len(banks) == len(pending):
            for p in pending:
                _grant(p, mem)
            self.total_accesses += len(pending)
            self.busy_bank_cycles += len(pending)
            return

        def key(p: TcdmPort) -> tuple[int, int]:
            r = p._rot_index
            return (p.priority, 0 if r is None else (r - off) % n)

        granted_banks: set[int] = set()
        for p in sorted(pending, key=key):
            bank = (p._pending[0] // bw) % nb
            if bank in granted_banks:
                p.conflicts += 1
                self.total_conflicts += 1
                continue
            granted_banks.add(bank)
            _grant(p, mem)
            self.total_accesses += 1
        self.busy_bank_cycles += len(granted_banks)

    # -- statistics ---------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Aggregate access statistics, per port and total."""
        out: dict[str, int] = {
            "total_accesses": self.total_accesses,
            "total_conflicts": self.total_conflicts,
        }
        for p in self._ports:
            out[f"{p.name}_reads"] = p.reads
            out[f"{p.name}_writes"] = p.writes
            out[f"{p.name}_conflicts"] = p.conflicts
        return out


def _grant(port: TcdmPort, mem: Memory) -> None:
    """:meth:`TcdmPort._grant` with the 8- and 4-byte reads inlined
    through precompiled unpackers; out-of-range and misaligned accesses
    still raise :class:`~repro.mem.memory.MemoryError_` from
    :meth:`Memory._check`."""
    addr, is_write, _, width = port._pending
    if is_write:
        port._grant(mem)
        return
    if width == 8:
        if addr < 0 or addr + 8 > mem.size or addr & 7:
            mem._check(addr, 8)
        port._response = _UNPACK_F64(mem._data, addr)[0]
    elif width == 4:
        if addr < 0 or addr + 4 > mem.size or addr & 3:
            mem._check(addr, 4)
        port._response = _UNPACK_U32(mem._data, addr)[0]
    else:
        port._grant(mem)
        return
    port.reads += 1
    port._pending = None
    port._response_ready = True
