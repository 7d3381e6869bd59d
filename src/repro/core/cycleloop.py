"""The compiled steady-state cycle loop of a single-core cluster.

:meth:`Cluster.step <repro.core.cluster.Cluster.step>` advances one
cycle through a call tree -- the FP subsystem's step, the integer
core's step, one bound step per armed SSR lane, the TCDM arbiter and
its grants -- and every call re-loads the state it works on.  On the
paper's stencils that tree costs more than the work it does.  This
module generates, per *machine shape*, one function that runs whole
stretches of cycles with the components held in locals and every phase
emitted inline, in the component order of :mod:`repro.core.cluster`:

1. the FP subsystem: chain bookkeeping, the FP LSU test, issue of the
   queue head through its lowered function (:mod:`repro.core.uops`)
   and writeback;
2. the integer core: dispatch through its lowered micro-ops;
3. the body of each armed lane's step (:mod:`repro.ssr.streamer`);
4. TCDM arbitration and grants over only the shape's live ports, with
   each port's access width fixed in the code.

The shape is each SSR lane's armed mode -- unarmed, or read/write,
affine/indirect (with the index width) -- plus
``chain_concurrent_push_pop``.  The loop for a shape is compiled once
per process and cached in :data:`_LOOPS`, as :mod:`repro.core.uops`
caches its issue templates; a run compiles a shape's loop only after
:data:`WARMUP` per-cycle steps in it, so the few cycles a program spends
arming its streams do not compile loops of their own.

**Hand-back.**  The loop returns to :meth:`Cluster.run
<repro.core.cluster.Cluster.run>` before any cycle that could change
the shape or needs a rare mechanism, and the per-cycle path takes that
cycle:

* the FP queue head is FREP, an FP CSR access or SCFG
  (:attr:`DispatchedEntry.rare <repro.core.sequencer.DispatchedEntry>`);
* the integer core would execute a CSR, Xdma or system instruction, or
  a dispatch that waits on a sync result (:func:`runs_in_loop`) -- so
  inside the loop the core is never halted, at a barrier or waiting on
  a sync, and no DMA transfer is queued;
* the cycle budget is reached.

The FREP sequencer and the fast path are inactive on entry and cannot
start inside the loop (FREP issue is handed back).

**Mirrored state.**  The streamers' port requests and responses, their
walker positions and statistics, the TCDM totals and rotation pointer
and the cycle count live in locals inside the loop (nothing the loop
calls reads them) and are written back on every exit, exceptions
included; a cycle with a TCDM request from the FP LSU or the core, or a
bank conflict among three or more streamer requests, writes them back
and arbitrates through :meth:`Tcdm.arbitrate
<repro.mem.tcdm.Tcdm.arbitrate>`.  Address checks are proven on entry
where they can be: an armed affine stream's whole range and an indirect
stream's index range are in bounds and aligned, or the lane's shape is
not loop-eligible; only indirect data addresses are checked per grant.

Contract: running the loop for ``k`` cycles leaves exactly the machine
state ``k`` calls of :meth:`Cluster.step` leave
(``tests/test_core_cycleloop.py`` checks it against the seed oracle).
"""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Callable

from repro.core.fastpath import _IDLE as _FASTPATH_IDLE
from repro.core.perf import SLOT, StallReason
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import Instr, InstrClass
from repro.ssr.address_gen import affine_addr_range
from repro.ssr.config import SsrMode

#: Compiled loops, keyed by machine shape (see :class:`Selector`).
_LOOPS: dict[tuple, Callable] = {}

#: Per-cycle steps a run takes in one shape before it compiles that
#: shape's loop (a loop already compiled in the process is used at once).
WARMUP = 256

_GEN_GLOBALS = {
    "_QUEUE_EMPTY": StallReason.QUEUE_EMPTY,
    "_unpack_f64": struct.Struct("<d").unpack_from,
    "_unpack_u32": struct.Struct("<I").unpack_from,
    "_unpack_u16": struct.Struct("<H").unpack_from,
    "_pack_f64": struct.Struct("<d").pack_into,
}

_CFG = attrgetter("cfg")
_S_RF_WRITES = SLOT["fp_rf_writes"]
_S_CHAIN_PUSHES = SLOT["chain_pushes"]
_S_SSR_WRITES = SLOT["ssr_reg_writes"]


# -- entry: which loop, if any ------------------------------------------------

def eligible(cluster) -> bool:
    """Whether ``cluster`` can run compiled loops at all: one core, no
    trace recorder, direct fetch, the shipped per-cycle step, and the
    TCDM port layout the loops are generated for."""
    from repro.core.cluster import Cluster

    if type(cluster).step is not Cluster.step or "step" in vars(cluster) \
            or not cluster._single \
            or cluster.trace is not None \
            or cluster.cfg.fetch_from_memory:
        return False
    fp = cluster.fp
    expected = [fp.lsu.port]
    for s in fp.streamers:
        expected += [s.data_port, s.idx_port]
    expected.append(cluster.core.port)
    tcdm = cluster.tcdm
    if tcdm._ports != expected \
            or tcdm._streamer_ports != expected[1:-1]:
        return False
    return all(p._rot_index == i
               for i, p in enumerate(tcdm._streamer_ports))


class Selector:
    """Per-run loop selection: the entry test :meth:`Cluster.run
    <repro.core.cluster.Cluster.run>` makes before each per-cycle step."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._core = cluster.core
        self._seq = cluster.fp.sequencer
        self._streamers = cluster.fp.streamers
        #: Per-cycle steps taken so far in each not-yet-compiled shape.
        self._heat: dict[tuple, int] = {}
        #: The lane configs the cached shape was derived from (equal
        #: configs give equal shapes).
        self._cfgs: list | None = None
        self._shape: tuple | None = None

    def __call__(self):
        """The loop to run from this cycle on, or None."""
        core = self._core
        seq = self._seq
        cluster = self.cluster
        if core.halted or core.barrier_wait \
                or core.waiting_sync is not None or cluster.dma._queue \
                or seq._active or (cluster.fastpath is not None and
                                   cluster.fastpath._state != _FASTPATH_IDLE):
            return None
        queue = seq.queue
        if queue and queue[0].rare:
            return None
        cfgs = list(map(_CFG, self._streamers))
        if cfgs != self._cfgs:
            self._cfgs = cfgs
            self._shape = _shape(cluster)
        shape = self._shape
        if shape is None:
            return None
        loop = _LOOPS.get(shape)
        if loop is None:
            count = self._heat[shape] = self._heat.get(shape, 0) + 1
            if count < WARMUP:
                return None
            loop = _LOOPS[shape] = _compile(shape)
        return loop


def _lane_mode(s, mem_size: int) -> str | None:
    """Loop mode of one lane, or None when its addresses cannot be
    proven in bounds and aligned up front."""
    cfg = s.cfg
    if cfg is None:
        return "-"
    kind = "R" if cfg.mode == SsrMode.READ else "W"
    if cfg.indirect:
        size = cfg.idx_size
        end = cfg.idx_base + cfg.total_elements() * size
        if cfg.idx_base < 0 or cfg.idx_base % size or end > mem_size \
                or cfg.base < 0 or cfg.base % 8 or cfg.idx_shift < 3:
            return None
        return f"{kind}I{size}"
    lo, hi = affine_addr_range(cfg)
    if lo < 0 or hi >= mem_size or cfg.base % 8 \
            or any(cfg.strides[d] % 8 for d in range(cfg.ndims)):
        return None
    return kind + "A"


def _shape(cluster) -> tuple | None:
    size = cluster.mem.size
    modes = tuple(_lane_mode(s, size) for s in cluster.fp.streamers)
    if None in modes:
        return None
    return modes, cluster.fp.chain.concurrent_push_pop


def runs_in_loop(instr: Instr) -> bool:
    """Whether the loop may execute ``instr`` on the integer core: all
    but CSR, Xdma and system instructions and the FP dispatches whose
    result the core waits for (FP compares and conversions to integer,
    ``scfgr``, FP CSR reads)."""
    iclass = instr.iclass
    if instr.is_fp or (iclass is InstrClass.CSR and is_fp_csr(instr.csr)):
        if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE,
                      InstrClass.FREP):
            return True
        if iclass is InstrClass.SCFG:
            return instr.mnemonic == "scfgw"
        if iclass is InstrClass.CSR:
            return instr.rd == 0
        return instr.spec.rd_domain != "x"
    return iclass not in (InstrClass.CSR, InstrClass.DMA, InstrClass.SYS)


def _admit(core):
    """The lowered micro-op at ``core.pc`` if the loop may run it (and
    remember it), else None.  Lowers lazily, as ``IntCore.step`` does."""
    from repro.core.uops import lower_int

    pc = core.pc
    index = (pc - core._pc_base) // 4
    uops = core._uops
    if not 0 <= index < len(uops):
        return None
    instr = core.program.instrs[index]
    if not runs_in_loop(instr):
        return None
    uop = uops[index]
    if uop is None:
        uop = uops[index] = lower_int(core, instr)
    core._loop_uops[pc] = uop
    return uop


# -- code generation ----------------------------------------------------------

class _Port:
    """One live streamer port of the shape and its mirrored locals."""

    def __init__(self, name: str, obj: str, kind: str, rot: int,
                 width: int = 8, checked: bool = False):
        self.name = name          # local-name stem
        self.obj = obj            # local holding the TcdmPort
        self.kind = kind          # "read" or "write"
        self.rot = rot            # rotation index among streamer ports
        self.width = width
        self.checked = checked    # upper bound tested per grant
        self.q = f"q_{name}"      # pending address, or None
        self.r = f"r_{name}"      # read response, or None
        self.w = f"w_{name}"      # write data
        self.a = f"a_{name}"      # write acknowledged
        self.n = f"n_{name}"      # reads / writes statistic
        self.c = f"c_{name}"      # conflicts statistic

    def stat(self) -> str:
        return "reads" if self.kind == "read" else "writes"

    def load(self, validate: bool) -> list[str]:
        """Lines loading the port's state into its locals.  With
        ``validate``, a state the loop does not model returns."""
        o = self.obj
        out = [f"p = {o}._pending",
               "if p is None:",
               f"    {self.q} = None"]
        if validate:
            bad = ["not p[1]" if self.kind == "write" else "p[1]",
                   f"p[3] != {self.width}", "p[0] < 0",
                   f"p[0] % {self.width}"]
            if not self.checked:
                bad.append(f"p[0] > size - {self.width}")
            if self.kind == "write":
                bad.append("type(p[2]) is not float")
            out += [f"elif {' or '.join(bad)}:", "    return"]
        out += ["else:", f"    {self.q} = p[0]"]
        if self.kind == "write":
            out += [f"    {self.w} = p[2]",
                    f"{self.a} = {o}._response_ready"]
            if validate:
                out += [f"if {self.a} and {o}._response is not None:",
                        "    return"]
        else:
            typ = "float" if self.width == 8 else "int"
            out += [f"{self.r} = {o}._response if {o}._response_ready "
                    f"else None"]
            if validate:
                out += [f"if {o}._response_ready and "
                        f"type({self.r}) is not {typ}:",
                        "    return"]
        out += [f"{self.n} = {o}.{self.stat()}",
                f"{self.c} = {o}.conflicts"]
        return out

    def store(self) -> list[str]:
        """Lines writing the locals back into the port."""
        o = self.obj
        if self.kind == "write":
            pending = f"({self.q}, True, {self.w}, 8)"
            out = [f"{o}._response = None",
                   f"{o}._response_ready = {self.a}"]
        else:
            pending = f"({self.q}, False, None, {self.width})"
            out = [f"{o}._response = {self.r}",
                   f"{o}._response_ready = {self.r} is not None"]
        return [f"{o}._pending = None if {self.q} is None else {pending}",
                *out,
                f"{o}.{self.stat()} = {self.n}",
                f"{o}.conflicts = {self.c}"]

    def grant(self) -> list[str]:
        """One granted access (the address is in bounds and aligned,
        or checked here)."""
        q = self.q
        out = []
        if self.checked:
            out += [f"if {q} > lim8:",
                    f"    mem._check({q}, {self.width})"]
        if self.kind == "write":
            out += [f"_pack_f64(data, {q}, {self.w})",
                    f"{self.a} = True"]
        else:
            unpack = {8: "_unpack_f64", 4: "_unpack_u32",
                      2: "_unpack_u16"}[self.width]
            out.append(f"{self.r} = {unpack}(data, {q})[0]")
        return out + [f"{q} = None", f"{self.n} += 1"]

    def bank(self) -> str:
        return f"({self.q} // bw) % nb"


class _Lane:
    """One armed SSR lane of the shape: its step body and locals."""

    def __init__(self, j: int, mode: str):
        self.j = j
        self.read = mode[0] == "R"
        self.indirect = mode[1] == "I"
        self.data = _Port(f"d{j}", f"dp{j}", "read" if self.read
                          else "write", 2 * j, 8, checked=self.indirect)
        self.idx = _Port(f"x{j}", f"xp{j}", "read", 2 * j + 1,
                         int(mode[2:])) if self.indirect else None

    @property
    def ports(self) -> list[_Port]:
        return [self.data] if self.idx is None else [self.data, self.idx]

    def load(self) -> list[str]:
        j = self.j
        out = [f"s{j} = streamers[{j}]",
               f"f{j} = s{j}._fifo",
               f"dep{j} = s{j}.fifo_depth",
               f"dp{j} = s{j}.data_port",
               f"el{j} = s{j}.elements_moved",
               f"ac{j} = s{j}.active_cycles"]
        if self.read:
            out.append(f"dr{j} = s{j}._data_requested")
        else:
            out.append(f"pw{j} = s{j}._pending_write_addr")
        if self.indirect:
            out += [f"xp{j} = s{j}.idx_port",
                    f"xf{j} = s{j}._idx_fifo",
                    f"ig{j} = s{j}._igen",
                    f"pos{j} = ig{j}._pos",
                    f"cnt{j} = ig{j}._count",
                    f"cf{j} = s{j}.cfg",
                    f"db{j} = cf{j}.base",
                    f"sh{j} = cf{j}.idx_shift",
                    f"ib{j} = cf{j}.idx_base"]
        else:
            out.append(f"g{j} = s{j}._gen")
        for port in self.ports:
            out += port.load(validate=True)
        return out

    def store(self) -> list[str]:
        """Lines writing the lane's own locals back (not its ports')."""
        j = self.j
        out = [f"s{j}.elements_moved = el{j}",
               f"s{j}.active_cycles = ac{j}"]
        if self.read:
            out.append(f"s{j}._data_requested = dr{j}")
        else:
            out.append(f"s{j}._pending_write_addr = pw{j}")
        if self.indirect:
            out.append(f"ig{j}._pos = pos{j}")
        return out

    def step(self) -> list[str]:
        """The lane's per-cycle step (``SsrStreamer._step_*``)."""
        j = self.j
        d = self.data
        out = ["worked = False"]
        # Retire a granted data response.
        if self.read:
            out += [f"if {d.r} is not None:",
                    f"    f{j}.append({d.r})",
                    f"    {d.r} = None",
                    f"    dr{j} = False"]
        else:
            out += [f"if {d.a}:",
                    f"    {d.a} = False",
                    f"    f{j}.popleft()",
                    f"    pw{j} = None"]
        out += [f"    el{j} += 1",
                "    worked = True"]
        x = self.idx
        if x is not None:
            out += [f"if {x.r} is not None:",
                    f"    xf{j}.append({x.r})",
                    f"    {x.r} = None",
                    "    worked = True"]
        # Launch the next data access.  (A response was retired above,
        # so the port has none pending.)
        if self.read:
            out.append(f"if {d.q} is None and len(f{j}) + dr{j} < dep{j}:")
            if self.indirect:
                out += [f"    if xf{j}:",
                        f"        {d.q} = db{j} + (xf{j}.popleft() << sh{j})",
                        f"        dr{j} = True",
                        "        worked = True"]
            else:
                out += [f"    if g{j}._remaining:",
                        f"        {d.q} = g{j}.next()",
                        f"        dr{j} = True",
                        "        worked = True"]
        else:
            out += [f"if f{j} and {d.q} is None:",
                    f"    addr = pw{j}"]
            if self.indirect:
                out += [f"    if addr is None and xf{j}:",
                        f"        addr = pw{j} = db{j} + "
                        f"(xf{j}.popleft() << sh{j})"]
            else:
                out += ["    if addr is None:",
                        f"        if g{j}._remaining:",
                        f"            addr = pw{j} = g{j}.next()"]
            out += ["    if addr is not None:",
                    f"        {d.q} = addr",
                    f"        {d.w} = f{j}[0]",
                    "        worked = True"]
        # Launch the next index fetch.
        if x is not None:
            out += [f"if pos{j} < cnt{j} and {x.q} is None "
                    f"and len(xf{j}) < dep{j}:",
                    f"    {x.q} = ib{j} + pos{j} * {x.width}",
                    f"    pos{j} += 1",
                    "    worked = True"]
        out += ["if worked:",
                f"    ac{j} += 1"]
        return out


def _indent(lines: list[str], depth: int) -> list[str]:
    pad = "    " * depth
    return [pad + line for line in lines]


class _Gen:
    def __init__(self, shape: tuple):
        modes, concurrent = shape
        self.concurrent = concurrent
        self.lanes = [_Lane(j, m) for j, m in enumerate(modes) if m != "-"]
        self.ports = [p for lane in self.lanes for p in lane.ports]
        self.nrot = 2 * len(modes)

    # -- mirrored-state traffic ---------------------------------------------

    def sync_out(self) -> list[str]:
        """Write the arbitration-visible locals back (ports, totals)."""
        out = []
        for port in self.ports:
            out += port.store()
        return out + ["tcdm.total_accesses = acc",
                      "tcdm.total_conflicts = cfl",
                      "tcdm.busy_bank_cycles = busy",
                      "tcdm._rr_offset = rr"]

    def sync_in(self) -> list[str]:
        out = []
        for port in self.ports:
            out += port.load(validate=False)
        return out + ["acc = tcdm.total_accesses",
                      "cfl = tcdm.total_conflicts",
                      "busy = tcdm.busy_bank_cycles",
                      "rr = tcdm._rr_offset"]

    def fallback(self) -> list[str]:
        """Arbitrate through ``Tcdm.arbitrate`` on the written-back state."""
        return self.sync_out() + ["tcdm.arbitrate()"] + self.sync_in() + [
            "lsu_live = lsu_port._response_ready "
            "or lsu._blocked_value is not None",
            "core_live = core_port._response_ready"]

    # -- arbitration among streamer requests ----------------------------------

    def tree(self, i: int = 0, chosen: tuple = ()) -> list[str]:
        """Decision tree over which streamer ports have a request (at
        most six ports, so at most 64 leaves)."""
        if i == len(self.ports):
            return self.leaf(list(chosen))
        port = self.ports[i]
        with_it = self.tree(i + 1, chosen + (port,))
        without = self.tree(i + 1, chosen)
        return ([f"if {port.q} is not None:"] + _indent(with_it, 1)
                + ["else:"] + _indent(without, 1))

    def leaf(self, chosen: list[_Port]) -> list[str]:
        m = len(chosen)
        if m == 0:
            return ["pass"]
        if m == 1:
            return chosen[0].grant() + ["acc += 1", "busy += 1"]
        n = self.nrot
        if m == 2:
            a, b = chosen
            # The lower (priority, rotation) key wins a shared bank; for
            # two streamer ports ``b`` wins when ``a.rot < o <= b.rot``.
            return [
                "o = rr",
                f"rr = (o + 1) % {n}",
                f"if {a.bank()} != {b.bank()}:",
                *_indent(a.grant() + b.grant(), 1),
                "    acc += 2",
                "    busy += 2",
                f"elif {a.rot} < o <= {b.rot}:",
                *_indent(self.win(b, a), 1),
                "else:",
                *_indent(self.win(a, b), 1),
            ]
        # Three or more: granted here when the banks are distinct, else
        # handed to ``Tcdm.arbitrate`` (``slow``).
        banks = [f"k{i}" for i in range(m)]
        out = [f"{k} = {p.bank()}" for k, p in zip(banks, chosen)]
        if m == 3:
            distinct = (f"{banks[0]} != {banks[1]} and {banks[0]} != "
                        f"{banks[2]} and {banks[1]} != {banks[2]}")
        else:
            distinct = f"len({{{', '.join(banks)}}}) == {m}"
        grants = []
        for port in chosen:
            grants += port.grant()
        return out + [f"if {distinct}:",
                      f"    rr = (rr + 1) % {n}",
                      *_indent(grants, 1),
                      f"    acc += {m}",
                      f"    busy += {m}",
                      "else:",
                      "    slow = True"]

    @staticmethod
    def win(winner: _Port, loser: _Port) -> list[str]:
        return winner.grant() + [f"{loser.c} += 1", "cfl += 1", "acc += 1",
                                 "busy += 1"]

    # -- FP writeback -----------------------------------------------------------

    def writeback(self) -> list[str]:
        """``FpSubsystem._writeback`` for a complete pipe head ``op``."""
        if self.concurrent:
            refused = "valid[dest] and dest not in popped"
        else:
            refused = "valid[dest] or vas[dest]"
        return [
            "if op.sync:",
            "    if not fp.sync_ready:",
            "        fp._deliver_sync(op.value)",
            "        retire = True",
            "    else:",
            "        retire = False",
            "elif op.dest_is_ssr:",
            "    s = streamers[op.dest]",
            "    fifo = s._fifo",
            "    if len(fifo) < s.fifo_depth:",
            "        fifo.append(float(op.value))",
            "        s._to_produce -= 1",
            f"        pvals[{_S_SSR_WRITES}] += 1",
            "        retire = True",
            "    else:",
            "        retire = False",
            "else:",
            "    dest = op.dest",
            "    if chain.mask >> dest & 1:",
            f"        if {refused}:",
            "            chain.backpressure_events += 1",
            "            retire = False",
            "        else:",
            "            fvalues[dest] = float(op.value)",
            "            valid[dest] = True",
            "            chain.pushes += 1",
            f"            pvals[{_S_CHAIN_PUSHES}] += 1",
            "            retire = True",
            "    else:",
            "        fvalues[dest] = float(op.value)",
            "        fbusy[dest] = False",
            f"        pvals[{_S_RF_WRITES}] += 1",
            "        retire = True",
            "if retire:",
            "    in_flight.popleft()",
            "    if op.unpipelined:",
            "        pipe._unpipelined -= 1",
        ]

    # -- the function -------------------------------------------------------------

    def source(self) -> str:
        lanes = self.lanes
        head = [
            "def loop(cl, max_cycles):",
            "    core = cl.core",
            "    fp = cl.fp",
            "    perf = cl.perf",
            "    pvals = perf.values",
            "    stalls = perf.stalls",
            "    tcdm = cl.tcdm",
            "    mem = tcdm.mem",
            "    data = mem._data",
            "    size = mem.size",
            "    lim8 = size - 8",
            "    bw = tcdm.bank_width",
            "    nb = tcdm.num_banks",
            "    seq = fp.sequencer",
            "    queue = seq.queue",
            "    chain = fp.chain",
            "    valid = chain.valid",
            "    popped = chain._popped_this_cycle",
            "    fvalues = fp.fpregs.values",
            "    fbusy = fp.fpregs.busy",
            "    fregs = fp.fpregs",
            "    pipe = fp.pipe",
            "    in_flight = pipe.in_flight",
            "    streamers = fp.streamers",
            "    lsu = fp.lsu",
            "    lsu_port = lsu.port",
            "    core_port = core.port",
            "    loop_uop = core._loop_uops.get",
            "    cfg = cl.cfg",
        ]
        prologue = []
        for lane in lanes:
            prologue += lane.load()
        prologue += [
            "cycle = cl.cycle",
            "acc = tcdm.total_accesses",
            "cfl = tcdm.total_conflicts",
            "busy = tcdm.busy_bank_cycles",
            "rr = tcdm._rr_offset",
            "lsu_live = lsu_port._response_ready "
            "or lsu._blocked_value is not None",
            "core_live = core_port._response_ready",
            "commits = None",
            "slow = False",
        ]
        body = [
            # -- top of cycle: hand back before rare cycles
            "stalled = cycle < core.stall_until",
            "if queue:",
            "    entry = queue[0]",
            "    if entry.rare:",
            "        break",
            "else:",
            "    entry = None",
            "if not stalled:",
            "    uop = loop_uop(core.pc)",
            "    if uop is None:",
            "        uop = _admit(core)",
            "        if uop is None:",
            "            break",
            # -- 1. FP subsystem
            "if popped:",
            "    popped.clear()",
        ]
        if not self.concurrent:
            body += ["vas = chain._valid_at_start = list(valid)"]
        body += [
            "if lsu_live:",
            "    commits = lsu.step()",
            "    lsu_live = lsu_port._response_ready "
            "or lsu._blocked_value is not None",
            "if entry is None:",
            "    stalls[_QUEUE_EMPTY] += 1",
            "else:",
            "    issue = entry.uop",
            "    if issue is None:",
            "        issue = entry.uop = _lower_fp(entry.instr, cfg)",
            "    issue(fp, entry, cycle)",
            "if in_flight:",
            "    op = in_flight[0]",
            "    if op.completes_at <= cycle:",
            *_indent(self.writeback(), 2),
            "if commits:",
            "    for dest, value in commits:",
            "        if not fregs.try_writeback(dest, value):",
            "            lsu.block(dest, value)",
            "            lsu_live = True",
            "        else:",
            f"            pvals[{_S_RF_WRITES}] += 1",
            "    commits = None",
            # -- 2. integer core
            "if core_live:",
            "    core._collect_load(cycle)",
            "    core_live = False",
            "if not stalled:",
            "    uop(cycle)",
        ]
        # -- 3. SSR lanes
        for lane in lanes:
            body += lane.step()
        # -- 4. TCDM
        body += ["if lsu_port._pending is None and core_port._pending is None:",
                 *_indent(self.tree(), 1),
                 "else:",
                 "    slow = True",
                 "if slow:",
                 "    slow = False",
                 *_indent(self.fallback(), 1),
                 "cycle += 1"]
        epilogue = ["cl.cycle = cycle",
                    "perf.cycles = cycle"]
        for lane in lanes:
            epilogue += lane.store()
        epilogue += self.sync_out()
        out = head + _indent(prologue, 1) + [
            "    try:",
            "        while cycle < max_cycles:",
            *_indent(body, 3),
            "    finally:",
            *_indent(epilogue, 2),
        ]
        return "\n".join(out) + "\n"


def _source(shape: tuple) -> str:
    """Source of the loop for one shape."""
    return _Gen(shape).source()


def _compile(shape: tuple) -> Callable:
    from repro.core.uops import lower_fp

    namespace = dict(_GEN_GLOBALS, _admit=_admit, _lower_fp=lower_fp)
    exec(compile(_source(shape), f"<cycle-loop {shape}>", "exec"),
         namespace)
    return namespace["loop"]
