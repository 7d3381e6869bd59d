"""Differential tests: the compiled cycle loop vs the seed oracle.

:mod:`repro.core.cycleloop` runs a single-core cluster's steady state
in generated code that mirrors streamer ports, walker positions and TCDM
totals in locals.  These tests hold it to the seed interpreter
(``tests/oracle/``):

* **lockstep fuzz** -- random stream programs (every lane mode,
  chaining, FP and integer memory traffic, chained loads, a load and
  an FPU result pushed into one chaining register, an FREP region,
  mid-program re-arms) run through ``Cluster.run(max_cycles=k)`` at several cut points ``k``;
  after each cut the complete machine state, every streamer port and
  walker included, must equal the oracle's after ``k`` steps;
* **digest tests** -- complete runs of every lane mode, conservative
  chaining, Base- FP-LSU spills, a re-arm while another lane streams, a
  DMA transfer, and identical timeout and deadlock outcomes;
* **compile-count pin** -- the ten Fig. 3 points compile at most three
  loops per process.

The loop normally starts only after :data:`~repro.core.cycleloop.WARMUP`
per-cycle steps in a shape; the fixture drops that to one step so short
programs run in the loop too.
"""

import random
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import cycleloop
from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.registry import get_stencil
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.ssr.config import SsrConfig, SsrMode

from oracle import ORACLE, engine_cluster
from test_core_scalar_v2 import machine_digest

DATA = 0x2000     # 128 doubles read by streams, fld and lw
IDX32 = 0x3000    # 256 u32 indices into DATA
IDX16 = 0x3800    # 256 u16 indices into DATA
OUT = 0x6000      # write streams and fsd/sw targets (256 doubles)
OUT_IDX = 0x5000  # 256 u32 indices into OUT
OUT_IDX16 = 0x5800  # 256 u16 indices into OUT


@pytest.fixture(autouse=True)
def eager_loops(monkeypatch):
    """Enter compiled loops after one per-cycle step, and count the
    cycles they run."""
    monkeypatch.setattr(cycleloop, "WARMUP", 1)
    ran = {"cycles": 0}
    select = cycleloop.Selector.__call__

    def counting(self):
        loop = select(self)
        if loop is None:
            return None

        def counted(cluster, max_cycles):
            start = cluster.cycle
            try:
                return loop(cluster, max_cycles)
            finally:
                ran["cycles"] += cluster.cycle - start
        return counted

    monkeypatch.setattr(cycleloop.Selector, "__call__", counting)
    return ran


def _load(cluster, rng):
    cluster.load_f64(DATA, np.array([rng.uniform(-4, 4)
                                     for _ in range(128)]))
    cluster.load_u32(IDX32, np.array([rng.randrange(128)
                                      for _ in range(256)]))
    cluster.mem._data[IDX16:IDX16 + 512] = np.array(
        [rng.randrange(128) for _ in range(256)], dtype="<u2").tobytes()
    cluster.load_u32(OUT_IDX, np.array([rng.randrange(256)
                                        for _ in range(256)]))
    cluster.mem._data[OUT_IDX16:OUT_IDX16 + 512] = np.array(
        [rng.randrange(256) for _ in range(256)], dtype="<u2").tobytes()


def _stream(rng, lane: int, mode: str, n: int) -> SsrPatternAsm:
    write = mode.startswith("W")
    if mode.endswith("A"):
        if write:
            return SsrPatternAsm(ssr=lane, base=OUT + 8 * rng.randrange(64),
                                 bounds=[n], strides=[8], write=True)
        inner = rng.choice((1, 2, 4))
        if n % inner:
            inner = 1
        return SsrPatternAsm(
            ssr=lane, base=DATA + 8 * rng.randrange(16),
            bounds=[inner, n // inner], strides=[8 * rng.randrange(1, 3),
                                                 8 * rng.randrange(0, 5)],
            write=write)
    size = 2 if mode.endswith("2") else 4
    if write:
        idx_base = (OUT_IDX16 if size == 2 else OUT_IDX) \
            + size * rng.randrange(64)
        base = OUT
    else:
        idx_base = (IDX16 if size == 2 else IDX32) \
            + size * rng.randrange(64)
        base = DATA
    return SsrPatternAsm(ssr=lane, base=base, bounds=[n], strides=[size],
                         write=write, indirect=True, idx_base=idx_base,
                         idx_size=size, idx_shift=3)


_MODES = ("-", "RA", "RI4", "RI2", "WA", "WI4", "WI2")
_OPS2 = ("fadd.d", "fsub.d", "fmul.d", "fmax.d")
_OPS3 = ("fmadd.d", "fnmsub.d")


def _stream_program(rng: random.Random) -> str:
    """A random program looping over SSR streams.

    Each of up to three lanes gets a random mode; the loop body pops
    every read lane and pushes every write lane once per iteration,
    optionally through a chaining register, among random FP/integer
    loads (some into a chaining register), stores, conversions and ALU
    work, and an FPU result and a load pushed into the same chaining
    register.  An FREP region may run first, and a second phase may
    re-arm the read lanes with fresh patterns.
    """
    iters = rng.randrange(8, 40)
    modes = [rng.choice(_MODES) for _ in range(3)]
    chain = rng.random() < 0.5
    lines = [f"li x8, {DATA}", f"li x9, {OUT}"]
    if chain:
        lines += ["li x7, 0x300000", "csrrw x0, 0x7C3, x7"]   # f20, f21
    for lane, mode in enumerate(modes):
        if mode != "-":
            lines.append(_stream(rng, lane, mode, iters).emit())
    plain = lambda: f"f{rng.randrange(3, 10)}"          # noqa: E731
    if rng.random() < 0.3:
        # A hardware loop before the streams: FREP issue hands back.
        lines += [f"li x6, {rng.randrange(1, 12)}", "frep.o x6, 1",
                  f"fadd.d {plain()}, {plain()}, {plain()}",
                  f"fmul.d {plain()}, {plain()}, {plain()}"]
    lines += ["csrrsi x0, ssr_enable, 1", "li x28, 0", f"li x29, {iters}",
              "loop:"]
    pushed = None
    for lane, mode in enumerate(modes):
        if mode.startswith("R"):
            dst = "f20" if chain and pushed is None else plain()
            if dst == "f20":
                pushed = dst
            if rng.random() < 0.5:
                lines.append(f"{rng.choice(_OPS3)} {dst}, f{lane}, "
                             f"{plain()}, {plain()}")
            else:
                lines.append(f"{rng.choice(_OPS2)} {dst}, {plain()}, "
                             f"f{lane}")
        if rng.random() < 0.3:
            lines.append(f"fld {plain()}, {8 * rng.randrange(128)}(x8)")
        if rng.random() < 0.2:
            lines.append(f"fsd {plain()}, {8 * rng.randrange(200, 256)}(x9)")
        if rng.random() < 0.2:
            lines.append(f"lw x{rng.randrange(18, 22)}, "
                         f"{4 * rng.randrange(256)}(x8)")
        if rng.random() < 0.3:
            lines.append(f"addi x{rng.randrange(18, 22)}, "
                         f"x{rng.randrange(18, 22)}, {rng.randrange(9)}")
        if rng.random() < 0.1:
            lines.append(f"sw x{rng.randrange(18, 22)}, "
                         f"{4 * rng.randrange(400, 512)}(x9)")
        if rng.random() < 0.1:
            lines.append(f"fcvt.d.w {plain()}, x{rng.randrange(18, 22)}")
        if chain and rng.random() < 0.3:
            # A load pushed into a chaining register (backpressure on
            # the FP LSU), popped by the next instruction.
            lines.append(f"fld f21, {8 * rng.randrange(128)}(x8)")
            lines.append(f"fmul.d {plain()}, f21, {plain()}")
        if chain and rng.random() < 0.3:
            # An FPU result and a load both pushed into f21.  One FP
            # instruction apart they reach it in the same cycle: the
            # writeback pushes first and the FP LSU retries its refused
            # commit on later cycles.
            pair = [f"{rng.choice(_OPS2)} f21, {plain()}, {plain()}",
                    f"fld f21, {8 * rng.randrange(128)}(x8)"]
            if rng.random() < 0.25:
                pair.reverse()
            lines.append(pair[0])
            lines += [f"fadd.d {plain()}, {plain()}, {plain()}"
                      for _ in range(rng.randrange(3))]
            lines.append(pair[1])
            lines += [f"fadd.d {plain()}, f21, {plain()}" for _ in range(2)]
    for lane, mode in enumerate(modes):
        if mode.startswith("W"):
            src = pushed or plain()
            pushed = None
            lines.append(f"{rng.choice(_OPS2)} f{lane}, {src}, {plain()}")
    if pushed is not None:
        lines.append(f"fadd.d {plain()}, {pushed}, {plain()}")
    lines += ["addi x28, x28, 1", "bne x28, x29, loop"]
    reads = [lane for lane, mode in enumerate(modes) if mode[0] == "R"]
    if reads and rng.random() < 0.6:
        lines += [_stream(rng, lane, modes[lane], iters).emit()
                  for lane in reads]
        lines += ["li x28, 0", "loop2:"]
        lines += [f"fadd.d {plain()}, f{lane}, {plain()}" for lane in reads]
        lines += ["addi x28, x28, 1", "bne x28, x29, loop2"]
    lines += ["csrrci x0, ssr_enable, 1", "ebreak"]
    return "\n".join(lines)


def _full_state(cluster: Cluster) -> tuple:
    """Everything the loop mirrors in locals, plus the lockstep state."""
    from test_core_scalar_v2 import _lockstep_state

    fp = cluster.fp
    lanes = []
    for s in fp.streamers:
        gen = s._gen
        igen = s._igen
        lanes.append((
            tuple(s._fifo), tuple(s._idx_fifo), s._rep_count,
            s._to_consume, s._to_produce, s._data_requested,
            s._pending_write_addr, s.elements_moved, s.active_cycles,
            None if gen is None else (tuple(gen._idx), gen._remaining),
            None if igen is None else igen._pos))
    tcdm = cluster.tcdm
    ports = [(p._pending, p._response, p._response_ready, p.reads,
              p.writes, p.conflicts) for p in tcdm._ports]
    return (_lockstep_state(cluster), lanes, ports, tcdm._rr_offset,
            tcdm.busy_bank_cycles, cluster.perf.cycles,
            bytes(cluster.mem._data[OUT:OUT + 0x800]))


def _pair(source, rng_seed, engine="scalar-v2", **cfg):
    """``(oracle cluster, cluster on engine)``, both loaded alike."""
    clusters = []
    for name in (ORACLE, engine):
        make, cfg_engine = engine_cluster(name)
        cluster = make(source, cfg=CoreConfig(engine=cfg_engine, **cfg))
        _load(cluster, random.Random(rng_seed))
        clusters.append(cluster)
    return clusters


def _outcome(fn):
    try:
        fn()
    except Exception as exc:   # errors must match too
        return type(exc).__name__, str(exc)
    return "done", ""


@pytest.mark.parametrize("seed", range(30))
def test_fuzz_lockstep_through_compiled_loop(seed, eager_loops):
    rng = random.Random(4242 + seed)
    source = _stream_program(rng)
    cfg = {"chain_concurrent_push_pop": rng.random() < 0.7}
    ref, got = _pair(source, seed, engine=rng.choice(("scalar-v2", "auto")),
                     **cfg)
    # The programs finish within 150-900 cycles.
    cuts = sorted(rng.sample(range(1, 900), 8)) + [4000]
    for cut in cuts:
        # The oracle's run loop is a plain loop over its seed step.
        ref_out = _outcome(lambda: ref.run(max_cycles=cut))
        got_out = _outcome(lambda: got.run(max_cycles=cut))
        assert got_out == ref_out, source
        if got_out[0] != "SimulationTimeout":
            assert machine_digest(got) == machine_digest(ref), source
            break
        assert _full_state(got) == _full_state(ref), \
            f"seed {seed} diverged by cycle {cut}\n{source}"
    assert eager_loops["cycles"] > 0


def _stencil_equivalent(build, **cfg):
    digests = []
    for engine in (ORACLE, "scalar-v2"):
        make, engine = engine_cluster(engine)
        cluster = make(build.asm, cfg=CoreConfig(engine=engine, **cfg),
                       symbols=build.symbols)
        build.load_into(cluster)
        outcome = _outcome(cluster.run)
        digests.append((outcome, machine_digest(cluster)))
    assert digests[0] == digests[1]
    return digests[1][1]


@pytest.mark.parametrize("variant", VARIANT_ORDER, ids=lambda v: v.label)
def test_stencil_variants_through_loop(variant, tiny_grid, eager_loops):
    spec, _ = get_stencil("box3d1r")
    _stencil_equivalent(build_stencil(spec, tiny_grid, variant))
    assert eager_loops["cycles"] > 0


def test_conservative_push_pop_through_loop(tiny_grid, eager_loops):
    """``chain_concurrent_push_pop=False``: a Base- stencil, and a
    stream loop chaining every element through f20 (the paper's
    chaining variants need the concurrent rule at their unroll)."""
    spec, _ = get_stencil("j3d27pt")
    _stencil_equivalent(build_stencil(spec, tiny_grid,
                                      Variant.from_label("Base-")),
                        chain_concurrent_push_pop=False)
    source = "\n".join([
        "li x7, 0x100000", "csrrw x0, 0x7C3, x7",
        _stream(random.Random(4), 0, "RI4", 32).emit(),
        _stream(random.Random(4), 1, "WA", 32).emit(),
        "csrrsi x0, ssr_enable, 1", "li x28, 0", "li x29, 32", "loop:",
        "fmadd.d f20, f0, f4, f5", "fmul.d f1, f20, f6",
        "addi x28, x28, 1", "bne x28, x29, loop",
        "csrrci x0, ssr_enable, 1", "ebreak"])
    ref, got = _pair(source, 4, chain_concurrent_push_pop=False)
    ref.run()
    got.run()
    assert machine_digest(got) == machine_digest(ref)
    assert got.fp.chain.pushes == 32
    assert eager_loops["cycles"] > 0


def test_base_minus_spills_use_the_fp_lsu(tiny_grid, eager_loops):
    """Base- spills through fld/fsd, whose TCDM requests the loop hands
    to ``Tcdm.arbitrate``."""
    spec, _ = get_stencil("j3d27pt")
    digest = _stencil_equivalent(build_stencil(
        spec, tiny_grid, Variant.from_label("Base-")))
    assert digest["lsu"][0][0] > 0
    assert eager_loops["cycles"] > digest["cycles"] // 2


def _lane_program(modes: tuple[str, ...], n: int = 24, seed: int = 0):
    rng = random.Random(seed)
    lines = [_stream(rng, lane, mode, n).emit()
             for lane, mode in enumerate(modes) if mode != "-"]
    lines += ["csrrsi x0, ssr_enable, 1", "li x28, 0", f"li x29, {n}",
              "loop:"]
    for lane, mode in enumerate(modes):
        if mode.startswith("R"):
            lines.append(f"fmadd.d f3, f{lane}, f4, f3")
    for lane, mode in enumerate(modes):
        if mode.startswith("W"):
            lines.append(f"fmul.d f{lane}, f5, f6")
    lines += ["addi x28, x28, 1", "bne x28, x29, loop",
              "csrrci x0, ssr_enable, 1", "ebreak"]
    return "\n".join(lines)


@pytest.mark.parametrize("modes", [
    ("RA", "-", "-"), ("RI4", "-", "-"), ("RI2", "-", "-"),
    ("-", "WA", "-"), ("-", "-", "WI4"), ("RA", "RI4", "WA"),
    ("RI4", "RI2", "WI4"), ("RA", "-", "WI2"), ("-", "-", "-")],
    ids=lambda m: "-".join(m))
def test_every_lane_mode_through_loop(modes, eager_loops):
    source = _lane_program(modes)
    digests = []
    for engine in (ORACLE, "scalar-v2"):
        make, engine = engine_cluster(engine)
        cluster = make(source, cfg=CoreConfig(engine=engine))
        _load(cluster, random.Random(5))
        outcome = _outcome(cluster.run)
        digests.append((outcome, machine_digest(cluster)))
    assert digests[0] == digests[1]
    assert digests[1][0] == ("done", "")
    assert eager_loops["cycles"] > 0


def test_rearm_while_another_lane_streams(eager_loops):
    """Lane 1 is re-armed mid-loop while lane 0's stream keeps flowing:
    the SCFG issues hand back, and the new arming runs in the loop."""
    rng = random.Random(11)
    first = _stream(rng, 1, "RA", 8)
    second = _stream(rng, 1, "RI4", 8)
    source = "\n".join([
        _stream(rng, 0, "RI4", 32).emit(), first.emit(),
        "csrrsi x0, ssr_enable, 1", "li x28, 0", "li x29, 8", "loop:",
        "fmadd.d f3, f0, f1, f3", "fadd.d f4, f0, f4",
        "addi x28, x28, 1", "bne x28, x29, loop",
        second.emit(), "li x28, 0", "loop2:",
        "fmadd.d f3, f0, f1, f3", "fadd.d f4, f0, f4",
        "addi x28, x28, 1", "bne x28, x29, loop2",
        "csrrci x0, ssr_enable, 1", "ebreak"])
    ref, got = _pair(source, 3)
    ref.run()
    got.run()
    assert machine_digest(got) == machine_digest(ref)
    assert eager_loops["cycles"] > 0


def test_dma_then_streams_through_loop(eager_loops):
    """A DMA transfer hands back until it drains; the streams that read
    what it copied then run in the loop."""
    source = "\n".join([
        f"li x1, {DATA}", f"li x2, {DATA + 0x400}", "li x3, 512",
        "dmsrc x1", "dmdst x2", "dmcpy x4, x3",
        SsrPatternAsm(ssr=0, base=DATA + 0x400, bounds=[64],
                      strides=[8]).emit(),
        "csrrsi x0, ssr_enable, 1", "li x28, 0", "li x29, 64", "loop:",
        "fadd.d f3, f0, f3", "addi x28, x28, 1", "bne x28, x29, loop",
        "csrrci x0, ssr_enable, 1", f"li x9, {OUT}", "fsd f3, 0(x9)",
        "ebreak"])
    ref, got = _pair(source, 9)
    ref.run()
    got.run()
    assert machine_digest(got) == machine_digest(ref)
    assert got.dma.transfers_completed == 1
    assert eager_loops["cycles"] > 0


def test_refused_load_commit_retries_in_loop(eager_loops, monkeypatch):
    """An FPU result and a load reach chaining register f21 in the same
    cycle: the writeback pushes first, the load commit is refused, and
    the FP LSU must retry it on the next cycles inside the loop."""
    from repro.core.lsu import FpLsu

    blocks = []
    block = FpLsu.block

    def counting(self, dest, value):
        blocks.append(sys._getframe(1).f_code.co_filename)
        return block(self, dest, value)

    monkeypatch.setattr(FpLsu, "block", counting)
    source = "\n".join([
        f"li x8, {DATA}", "li x7, 0x200000", "csrrw x0, 0x7C3, x7",
        _stream(random.Random(1), 0, "RI4", 12).emit(),
        "csrrsi x0, ssr_enable, 1", "li x28, 0", "li x29, 12", "loop:",
        "fadd.d f3, f0, f4", "fmul.d f21, f5, f6", "fadd.d f7, f8, f9",
        "fld f21, 64(x8)", "fadd.d f3, f21, f3", "fadd.d f4, f21, f4",
        "addi x28, x28, 1", "bne x28, x29, loop",
        "csrrci x0, ssr_enable, 1", "ebreak"])
    ref, got = _pair(source, 3)
    for cut in (60, 120, 180, 4000):
        outcomes = [_outcome(lambda c=c: c.run(max_cycles=cut))
                    for c in (ref, got)]
        assert outcomes[0] == outcomes[1]
        assert _full_state(got) == _full_state(ref), f"cut {cut}"
    assert outcomes[1][0] == "done"
    assert any(name.startswith("<cycle-loop") for name in blocks)


def test_timeout_and_deadlock_outcomes_match(eager_loops):
    # Timeout: the budget ends inside the loop.
    source = _lane_program(("RI4", "WA", "-"), n=64)
    ref, got = _pair(source, 1)
    outcomes = [_outcome(lambda c=c: c.run(max_cycles=300))
                for c in (ref, got)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == "SimulationTimeout"
    assert _full_state(got) == _full_state(ref)
    # Deadlock: the program streams through the loop, then halts with a
    # write stream it never fed, which cannot drain.
    source = "\n".join([
        SsrPatternAsm(ssr=2, base=OUT, bounds=[4], strides=[8],
                      write=True).emit(),
        _stream(random.Random(2), 0, "RI4", 16).emit(),
        "csrrsi x0, ssr_enable, 1", "li x28, 0", "li x29, 16", "loop:",
        "fadd.d f3, f0, f3", "addi x28, x28, 1", "bne x28, x29, loop",
        "ebreak"])
    ref, got = _pair(source, 2)
    outcomes = [_outcome(c.run) for c in (ref, got)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == "SimulationDeadlock"
    assert machine_digest(got) == machine_digest(ref)


def test_fig3_points_compile_at_most_three_loops(small_grid, monkeypatch):
    """With the default warm-up, the ten Fig. 3 points compile one loop
    per steady-state shape and none for the cycles spent arming.  (The
    grid is smaller than the reference ones; the arming prologue and the
    lane modes do not depend on it.)"""
    monkeypatch.setattr(cycleloop, "WARMUP", 256)
    monkeypatch.setattr(cycleloop, "_LOOPS", {})
    for kernel in ("j3d27pt", "box3d1r"):
        spec, _ = get_stencil(kernel)
        for variant in VARIANT_ORDER:
            build = build_stencil(spec, small_grid, variant)
            cluster = Cluster(build.asm, cfg=CoreConfig(),
                              symbols=build.symbols)
            build.load_into(cluster)
            cluster.run()
    assert len(cycleloop._LOOPS) <= 3
    assert {modes[1] for modes, _ in cycleloop._LOOPS} \
        == {"-", "RA", "WA"}


def test_loop_sources_cover_every_shape():
    """Every lane-mode combination generates compilable code."""
    modes = ("-", "RA", "RI2", "RI4", "WA", "WI2", "WI4")
    rng = random.Random(0)
    for _ in range(40):
        shape = (tuple(rng.choice(modes) for _ in range(3)),
                 rng.random() < 0.5)
        compile(cycleloop._source(shape), "<test>", "exec")


def test_ineligible_clusters_never_enter_a_loop(eager_loops):
    source = _lane_program(("RI4", "WA", "-"))
    traced = Cluster(source, trace=__import__(
        "repro.trace", fromlist=["TraceRecorder"]).TraceRecorder())
    _load(traced, random.Random(0))
    traced.run()
    multi = Cluster(source, num_cores=2)
    assert not cycleloop.eligible(multi)
    binary = Cluster(source, cfg=CoreConfig(fetch_from_memory=True))
    assert not cycleloop.eligible(binary)
    assert eager_loops["cycles"] == 0


def test_seed_oracle_drives_its_own_step():
    make, engine = engine_cluster(ORACLE)
    cluster = make(_lane_program(("RA", "-", "-")),
                   cfg=CoreConfig(engine=engine))
    assert not cycleloop.eligible(cluster)


def test_out_of_range_indirect_read_fails_alike(eager_loops):
    """An index that points past memory raises at the grant, with the
    machine state of the failing cycle intact."""
    source = _lane_program(("RI4", "WA", "-"), n=32)
    ref, got = _pair(source, 6)
    for cluster in (ref, got):
        cluster.mem.write_u32(IDX32 + 4 * 70, 0x4_0000)
    outcomes = [_outcome(c.run) for c in (ref, got)]
    assert outcomes[0] == outcomes[1]
    assert outcomes[1][0] == "MemoryError_"
    assert _full_state(got) == _full_state(ref)
    assert eager_loops["cycles"] > 0


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode counts are specific to CPython 3.11")
def test_bytecodes_per_cycle_budget(monkeypatch):
    """j3d27pt Chaining+ on the 2x4x16 grid stays within 700 opcodes
    per simulated cycle (1,179 before the compiled loop)."""
    monkeypatch.setattr(cycleloop, "WARMUP", 256)
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "scripts"))
    from count_bytecodes import count

    total, cycles, _ = count("j3d27pt", "Chaining+", (2, 4, 16))
    assert total / cycles <= 700


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="opcode counts are specific to CPython 3.11")
def test_bytecodes_per_cluster_cycle_budget(monkeypatch):
    """A 2-cluster System point (j3d27pt Chaining+ on 4x4x8) stays
    within 1,200 opcodes per cluster-cycle."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "scripts"))
    from count_bytecodes import count

    total, cycles, _ = count("j3d27pt", "Chaining+", (4, 4, 8),
                             clusters=2)
    assert total / cycles <= 1200


@pytest.mark.parametrize("fields, mode", [
    (dict(base=DATA, bounds=[4, 4, 1, 1], strides=[8, 32, 0, 0],
          ndims=2), "RA"),
    (dict(base=DATA + 4, bounds=[4, 1, 1, 1]), None),
    (dict(base=DATA, bounds=[4, 1, 1, 1], strides=[12, 0, 0, 0]), None),
    (dict(base=16, bounds=[4, 1, 1, 1], strides=[-8, 0, 0, 0]), None),
    (dict(base=(1 << 21) - 16, bounds=[4, 1, 1, 1],
          strides=[8, 0, 0, 0]), None),
    (dict(base=OUT, bounds=[8, 1, 1, 1], strides=[8, 0, 0, 0],
          mode=SsrMode.WRITE), "WA"),
    (dict(base=DATA, bounds=[8, 1, 1, 1], indirect=True,
          idx_base=IDX32), "RI4"),
    (dict(base=DATA, bounds=[8, 1, 1, 1], indirect=True, idx_size=2,
          idx_base=IDX16 + 1), None),
    (dict(base=DATA, bounds=[8, 1, 1, 1], indirect=True,
          idx_base=(1 << 21) - 8), None),
    (dict(base=DATA, bounds=[8, 1, 1, 1], indirect=True,
          idx_base=IDX32, idx_shift=2), None),
])
def test_unprovable_lanes_give_no_shape(fields, mode):
    """A lane whose addresses cannot be proven in bounds and aligned up
    front gives no loop shape: its cluster stays on the per-cycle path,
    which faults where the stream does."""
    lane = SimpleNamespace(cfg=SsrConfig(**fields))
    assert cycleloop._lane_mode(lane, 1 << 21) == mode
