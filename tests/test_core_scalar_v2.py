"""Differential tests: the scalar-v2 micro-op engine vs the seed oracle.

The micro-op engine (pre-decoded dispatch + the compiled cycle loop,
``CoreConfig.engine = "scalar-v2"``) must be indistinguishable from the
seed interpreter (``tests/oracle/``) in every architecturally visible
quantity.  Two layers
of evidence:

* **digest tests** run the workloads the vectorized FREP fast path
  rejects -- stencils (indirect SSR streams), ``frep.i``, register
  staggering, FP loads, DMA drains, multicore barriers -- to completion
  under both engines and compare a full-machine digest (results, cycle
  counts, every perf/stall/TCDM/SSR/DMA counter, trace events);
* **lockstep fuzz** steps two clusters cycle-by-cycle over randomized
  small programs and compares the complete machine state after every
  cycle, so even a transient one-cycle divergence that cancels out by
  the end of the run is caught.
"""

import itertools
import random

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.registry import get_stencil
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.trace import TraceRecorder

from oracle import ORACLE, engine_cluster

DATA = 0x2000
OUT = 0x6000


def machine_digest(cluster: Cluster) -> dict:
    """Every architecturally visible quantity of a finished run."""
    return {
        "cycles": cluster.cycle,
        "summary": cluster.perf.summary(),
        "stalls": cluster.perf.stall_breakdown(),
        "marks": {k: (v.cycle, v.counters)
                  for k, v in cluster.perf.marks.items()},
        "tcdm": cluster.tcdm.stats(),
        "fpregs": [tuple(fp.fpregs.values) for fp in cluster.fps],
        "intregs": [tuple(core.regs.values) for core in cluster.cores],
        "chain": [(fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
                   fp.chain.pops, fp.chain.backpressure_events)
                  for fp in cluster.fps],
        "streamers": [[(s.active_cycles, s.elements_moved, s._to_consume,
                        s._to_produce) for s in fp.streamers]
                      for fp in cluster.fps],
        "lsu": [(fp.lsu.loads, fp.lsu.stores) for fp in cluster.fps],
        "dma": (cluster.dma.bytes_moved, cluster.dma.busy_cycles,
                cluster.dma.transfers_completed),
        "mem": bytes(cluster.mem._data),
    }


def run_engine(source, engine: str, *, num_cores: int = 1,
               loader=None, trace: bool = False,
               fetch_from_memory: bool = False, **cfg_overrides):
    make, engine = engine_cluster(engine)
    cfg = CoreConfig(engine=engine, fetch_from_memory=fetch_from_memory,
                     **cfg_overrides)
    recorder = TraceRecorder() if trace else None
    if hasattr(source, "asm"):
        cluster = make(source.asm, cfg=cfg, symbols=source.symbols,
                          trace=recorder, num_cores=num_cores)
        source.load_into(cluster)
    else:
        cluster = make(source, cfg=cfg, trace=recorder,
                       num_cores=num_cores)
        if loader is not None:
            loader(cluster)
    cluster.run()
    return cluster, recorder


def assert_equivalent(source, *, num_cores: int = 1, loader=None,
                      trace: bool = False, fetch_from_memory: bool = False,
                      engines=("scalar-v2", "auto"), **cfg_overrides):
    ref, ref_tr = run_engine(source, ORACLE, num_cores=num_cores,
                             loader=loader, trace=trace,
                             fetch_from_memory=fetch_from_memory,
                             **cfg_overrides)
    ref_digest = machine_digest(ref)
    for engine in engines:
        got, got_tr = run_engine(source, engine, num_cores=num_cores,
                                 loader=loader, trace=trace,
                                 fetch_from_memory=fetch_from_memory,
                                 **cfg_overrides)
        assert machine_digest(got) == ref_digest, engine
        if trace:
            assert [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in got_tr.fp_events] \
                == [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in ref_tr.fp_events], engine
            assert [(e.cycle, e.text, e.dispatched)
                    for e in got_tr.int_events] \
                == [(e.cycle, e.text, e.dispatched)
                    for e in ref_tr.int_events], engine
    return ref


# -- fast-path-rejected workloads ------------------------------------------

@pytest.mark.parametrize("variant", VARIANT_ORDER,
                         ids=lambda v: v.label)
def test_stencil_variants_equivalent(variant, tiny_grid):
    """Stencils ride an indirect SSR stream: always fast-path-rejected."""
    spec, _ = get_stencil("j3d27pt")
    assert_equivalent(build_stencil(spec, tiny_grid, variant))


def test_stencil_reference_kernel_small_grid(small_grid):
    spec, _ = get_stencil("box3d1r")
    assert_equivalent(
        build_stencil(spec, small_grid, Variant.from_label("Chaining+")))


def test_frep_inner_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 5
    frep.i t0, 1
    fadd.d fa0, fa0, fa1
    fmul.d fa2, fa2, fa1
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa2, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([0.5, 2.0, 1.0])))


def test_frep_staggered_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 7
    frep.o t0, 0, 1, 0b011
    fadd.d fa0, fa0, fa2
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa1, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([1.0, 10.0, 0.125])))


def test_fp_load_store_loop_equivalent():
    # fld/fsd traffic keeps the FP LSU busy: rejected by the fast path,
    # hot on the micro-op engine.
    assert_equivalent(f"""
    li a0, {DATA}
    li a1, {OUT}
    li t1, 0
loop:
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fmadd.d fa2, fa0, fa1, fa0
    fsd fa2, 0(a1)
    addi a0, a0, 16
    addi a1, a1, 8
    addi t1, t1, 1
    li t2, 24
    bne t1, t2, loop
    ebreak
""", loader=lambda c: c.load_f64(
        DATA, np.linspace(0.5, 12.0, 48)))


def test_dma_drain_equivalent():
    source = f"""
    li x1, {DATA}
    li x2, {OUT}
    li x3, 2048
    dmsrc x1
    dmdst x2
    dmcpy x4, x3
    ebreak
"""
    assert_equivalent(
        source,
        loader=lambda c: c.load_f64(DATA, np.arange(256, dtype=np.float64)))


def test_multicore_barrier_equivalent():
    assert_equivalent(f"""
    csrr a0, mhartid
    li t6, {OUT}
    slli a1, a0, 3
    add t6, t6, a1
    beq a0, x0, hart0
    li t0, 30
spin:
    addi t0, t0, -1
    bne t0, x0, spin
hart0:
    li a2, {DATA}
    fld fa0, 0(a2)
    fcvt.d.w fa1, a0
    fadd.d fa0, fa0, fa1
    csrrwi x0, 0x7C6, 1
    fsd fa0, 0(t6)
    ebreak
""", num_cores=3,
        loader=lambda c: c.load_f64(DATA, np.array([40.0])))


def test_multicore_run_waits_for_every_hart():
    """Hart 0 halts at once while hart 1 spins: the post-halt watchdog
    of ``Cluster.run`` must not count the spin as a stuck drain."""
    source = """
    csrr a0, mhartid
    beq a0, x0, done
    li t0, 200
spin:
    addi t0, t0, -1
    bne t0, x0, spin
done:
    ebreak
"""
    ref = assert_equivalent(source, num_cores=2)
    assert all(core.halted for core in ref.cores)
    assert ref.cycle > 400  # 200 two-instruction iterations


def test_sync_wait_spans_equivalent():
    # Back-to-back FP->int syncs with long-latency producers: the core
    # sits in long sync-wait spans.
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fdiv.d fa2, fa0, fa1
    feq.d t1, fa2, fa2
    fsqrt.d fa3, fa2
    fcvt.w.d t2, fa3
    add t3, t1, t2
    li a1, {OUT}
    sw t3, 0(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([81.0, 1.0])))


def test_vecop_frep_traced_equivalent():
    build = build_vecop(n=24, variant=VecopVariant.CHAINING,
                        loop_mode="frep")
    assert_equivalent(build, trace=True, engines=("scalar-v2", "auto"))


def test_binary_fetch_equivalent():
    spec, _ = get_stencil("j2d5pt")
    from repro.kernels.layout import Grid3d

    build = build_stencil(spec, Grid3d(nz=1, ny=4, nx=16),
                          Variant.from_label("Chaining"))
    assert_equivalent(build, fetch_from_memory=True)


def test_engine_composition_and_validation():
    cfg = CoreConfig(engine="scalar-v2")
    cfg.validate()
    cluster = Cluster("ebreak", cfg=cfg)
    assert cluster.fastpath is None           # never the vectorized path
    auto = Cluster("ebreak", cfg=CoreConfig(engine="auto"))
    assert auto.fastpath is not None          # composed with it
    for retired in ("scalar-v3", "scalar", "fast"):
        with pytest.raises(ValueError,
                           match="'auto', 'scalar-v2' or 'analytical'"):
            CoreConfig(engine=retired).validate()


# -- FP compute issue: every operand kind ------------------------------------
#
# The scalar-v2 FP compute issue is generated code specialized on the
# kind of each operand (stream, chain or register, set by ssr_enable and
# chain_mask), so every kind combination is its own code path.  Sources
# in position i read stream lane ft<i> (ft0..ft2), chaining register
# f2<i> (pushed by a producer just before) or plain register f<3+i>; the
# destination is stream lane ft<next free>, chaining register f23
# (popped by a consumer just after) or plain register f7.

_KINDS = ("S", "C", "R")
_ITERS = 4


def _kind_program(mnemonic: str, kinds: tuple, dest: str) -> str:
    from repro.kernels.ssrgen import SsrPatternAsm

    lanes, ops, producers, mask = [], [], [], 0
    for i, kind in enumerate(kinds):
        if kind == "S":
            lane = len(lanes)
            lanes.append(SsrPatternAsm(lane, base=DATA + 0x200 * lane,
                                       bounds=[_ITERS], strides=[8]))
            ops.append(f"f{lane}")
        elif kind == "C":
            mask |= 1 << (20 + i)
            producers.append(f"    fadd.d f{20 + i}, f3, f4")
            ops.append(f"f{20 + i}")
        else:
            ops.append(f"f{3 + i}")
    consumer = []
    if dest == "S":
        lane = len(lanes)
        lanes.append(SsrPatternAsm(lane, base=OUT + 0x100, bounds=[_ITERS],
                                   strides=[8], write=True))
        rd = f"f{lane}"
    elif dest == "C":
        mask |= 1 << 23
        rd = "f23"
        consumer.append("    fadd.d f6, f6, f23")
    else:
        rd = "f7"
    lines = [f"    li x8, {DATA}", f"    li x9, {OUT}"]
    lines += [f"    fld f{r}, {8 * (r - 3)}(x8)" for r in range(3, 8)]
    lines += [lane.emit() for lane in lanes]
    if lanes:
        lines.append("    csrrsi x0, ssr_enable, 1")
    if mask:
        lines += [f"    li x7, {mask}", "    csrrw x0, chain_mask, x7"]
    lines += [f"    li x5, {_ITERS}", "loop:"]
    lines += producers
    lines.append(f"    {mnemonic} {rd}, {', '.join(ops)}")
    lines += consumer
    lines += ["    addi x5, x5, -1", "    bne x5, x0, loop",
              "    fsd f6, 0(x9)", "    fsd f7, 8(x9)", "    ebreak"]
    return "\n".join(lines)


def _kind_data(cluster):
    cluster.load_f64(DATA, np.linspace(0.25, 4.0, 8))
    for lane in range(3):
        cluster.load_f64(DATA + 0x200 * lane,
                         np.arange(1.0, 17.0) * (lane + 2))


def _kind_cases():
    for mnemonic, arity in (("fmadd.d", 3), ("fadd.d", 2), ("fmul.d", 2)):
        for kinds in itertools.product(_KINDS, repeat=arity):
            for dest in _KINDS:
                if kinds.count("S") + (dest == "S") > 3:
                    continue   # needs a fourth SSR lane
                yield pytest.param(mnemonic, kinds, dest, id=(
                    f"{mnemonic}-{''.join(kinds)}-{dest}"))


@pytest.mark.parametrize("mnemonic,kinds,dest", _kind_cases())
def test_fp_compute_operand_kinds_equivalent(mnemonic, kinds, dest):
    assert_equivalent(_kind_program(mnemonic, kinds, dest),
                      loader=_kind_data, engines=("scalar-v2",))


@pytest.mark.parametrize("kinds,dest", [
    (("S", "R", "C"), "C"), (("S", "C", "R"), "S"), (("C", "C", "C"), "R"),
    (("R", "R", "C"), "C")], ids=lambda v: "".join(v))
def test_fp_compute_conservative_push_pop_equivalent(kinds, dest):
    assert_equivalent(_kind_program("fmadd.d", kinds, dest),
                      loader=_kind_data, engines=("scalar-v2",),
                      chain_concurrent_push_pop=False)


def test_fp_compute_operand_kinds_traced_equivalent():
    assert_equivalent(_kind_program("fmadd.d", ("S", "R", "C"), "C"),
                      loader=_kind_data, trace=True,
                      engines=("scalar-v2", "auto"))


def test_duplicated_stream_and_chain_operands_equivalent():
    """A stream register named twice pops once per position (with
    ``repeat`` serving the second read from the same element); a chain
    register named twice pops once."""
    from repro.kernels.ssrgen import SsrPatternAsm

    ssr0 = SsrPatternAsm(0, base=DATA + 0x200, bounds=[8], strides=[8])
    ssr1 = SsrPatternAsm(1, base=DATA + 0x400, bounds=[4], strides=[8],
                         repeat=1)
    assert_equivalent(f"""
    li x8, {DATA}
    li x9, {OUT}
    fld f3, 0(x8)
    fld f4, 8(x8)
{ssr0.emit()}
{ssr1.emit()}
    csrrsi x0, ssr_enable, 1
    li x7, {1 << 20}
    csrrw x0, chain_mask, x7
    li x5, 4
loop:
    fmadd.d f5, ft0, ft0, f3
    fmul.d f6, ft1, ft1
    fadd.d f20, f3, f4
    fmul.d f7, f20, f20
    fadd.d f20, f4, f5
    fmadd.d f3, f20, f20, f20
    addi x5, x5, -1
    bne x5, x0, loop
    fsd f5, 0(x9)
    fsd f6, 8(x9)
    fsd f7, 16(x9)
    fsd f3, 24(x9)
    ebreak
""", loader=_kind_data, engines=("scalar-v2",))


def test_unpipelined_and_sync_ops_equivalent():
    """fdiv/fsqrt (unpipelined) and the integer-side feq, fcvt.w.d and
    fcvt.d.w, with stream and chain operands and destinations."""
    from repro.kernels.ssrgen import SsrPatternAsm

    ssr0 = SsrPatternAsm(0, base=DATA + 0x200, bounds=[14], strides=[8])
    assert_equivalent(f"""
    li x8, {DATA}
    li x9, {OUT}
    fld f3, 0(x8)
    fld f4, 8(x8)
{ssr0.emit()}
    csrrsi x0, ssr_enable, 1
    li x7, {1 << 20 | 1 << 21}
    csrrw x0, chain_mask, x7
    li x5, 2
loop:
    fdiv.d f20, ft0, f3
    fsqrt.d f5, f20
    fadd.d f21, ft0, f4
    feq.d x6, f21, f3
    fcvt.d.w f20, x5
    fcvt.w.d x7, f20
    fdiv.d f6, ft0, ft0
    fsqrt.d f21, ft0
    flt.d x6, f21, ft0
    fle.d x7, ft0, f5
    add x6, x6, x7
    addi x5, x5, -1
    bne x5, x0, loop
    fsd f5, 0(x9)
    fsd f6, 8(x9)
    sw x6, 16(x9)
    ebreak
""", loader=_kind_data, engines=("scalar-v2",))


def test_operand_kinds_change_under_one_instruction_equivalent():
    """The same instruction (one pc, reached through a subroutine) runs
    with its operands as registers, then streams, then chains, then
    back, as csr writes to ssr_enable and chain_mask change their
    kinds; the specialized issue code must notice every change."""
    from repro.kernels.ssrgen import SsrPatternAsm

    ssr0 = SsrPatternAsm(0, base=DATA + 0x200, bounds=[2], strides=[8])
    source = f"""
    li x8, {DATA}
    li x9, {OUT}
    fld f0, 0(x8)
    fld f3, 8(x8)
    fld f4, 16(x8)
{ssr0.emit()}
    jal ra, body
    csrrsi x0, ssr_enable, 1
    jal ra, body
    li x7, {1 << 10 | 1 << 11}
    csrrw x0, chain_mask, x7
    jal ra, body
    csrrci x0, ssr_enable, 1
    jal ra, body
    csrrw x0, chain_mask, x0
    jal ra, body
    fsd f6, 0(x9)
    fsd f10, 8(x9)
    ebreak
body:
    fadd.d f11, f3, f4
    fmadd.d f10, f0, f11, f3
    fadd.d f6, f6, f10
    jalr x0, ra, 0
"""
    ref = assert_equivalent(source, loader=_kind_data,
                            engines=("scalar-v2",))
    assert ref.fp.streamers[0].done


def test_indirect_scatter_stream_equivalent():
    """An indirect (scatter) write stream drains on both engines."""
    from repro.kernels.ssrgen import SsrPatternAsm

    n = 6
    idx = np.array([4, 0, 5, 1, 3, 2], dtype=np.uint32)
    src = np.arange(2.0, 2.0 + n)
    ssr0 = SsrPatternAsm(0, base=DATA, bounds=[n], strides=[8])
    ssr1 = SsrPatternAsm(1, base=OUT, bounds=[n], strides=[0], write=True,
                         indirect=True, idx_base=DATA + 0x400, idx_size=4,
                         idx_shift=3)

    def loader(cluster):
        cluster.load_f64(DATA, src)
        cluster.load_u32(DATA + 0x400, idx)

    ref = assert_equivalent(f"""
    li x8, {DATA}
    fld fa0, 0(x8)
{ssr0.emit()}
{ssr1.emit()}
    csrrsi x0, ssr_enable, 1
    li t3, {n - 1}
    frep.o t3, 0
    fmul.d ft1, ft0, fa0
    ebreak
""", loader=loader)
    out = ref.read_f64(OUT, (n,))
    assert list(out[idx]) == list(src * src[0])


def test_compute_templates_keyed_by_kind_not_register(tiny_grid):
    """Both paper stencils, back to back, compile a handful of issue
    templates: the cache is keyed by operand kinds, so the stencils'
    dozens of distinct compute instructions share them."""
    from repro.core import uops

    saved = dict(uops._COMPUTE_TEMPLATES)
    uops._COMPUTE_TEMPLATES.clear()
    try:
        variant = Variant.from_label("Chaining+")
        distinct = set()
        for kernel in ("j3d27pt", "box3d1r"):
            spec, _ = get_stencil(kernel)
            build = build_stencil(spec, tiny_grid, variant)
            run_engine(build, "scalar-v2")
            distinct |= {line.strip() for line in build.asm.splitlines()
                         if line.strip().startswith(("fmadd.d", "fmul.d"))}
        assert len(distinct) > 20
        assert len(uops._COMPUTE_TEMPLATES) == 3
    finally:
        uops._COMPUTE_TEMPLATES.clear()
        uops._COMPUTE_TEMPLATES.update(saved)


# -- lockstep fuzz -----------------------------------------------------------

_FP_OPS2 = ("fadd.d", "fsub.d", "fmul.d", "fmin.d", "fmax.d", "fsgnj.d")
_FP_OPS3 = ("fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d")
_INT_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "mul",
            "mulh", "divu", "rem")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti", "slli", "srli", "srai")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _random_program(rng: random.Random) -> str:
    """A random terminating program over a safe instruction subset.

    Integer regs x1..x7 compute, x8/x9 hold data bases, FP regs f3..f9
    compute with f20..f23 optionally chain-enabled (the chain mask and
    ``ssr_enable`` are also rewritten mid-program); branches only jump
    forward, so the program always reaches ``ebreak``.
    """
    lines = [f"li x8, {DATA}", f"li x9, {OUT}"]
    if rng.random() < 0.6:
        mask = 0
        for reg in (20, 21, 22, 23):
            if rng.random() < 0.5:
                mask |= 1 << reg
        lines.append(f"li x7, {mask}")
        lines.append("csrrw x0, 0x7C3, x7")
    label = 0
    pending_label = None
    for _ in range(rng.randrange(10, 60)):
        if pending_label is not None and rng.random() < 0.7:
            lines.append(f"{pending_label}:")
            pending_label = None
        kind = rng.random()
        r = lambda: rng.randrange(1, 8)          # noqa: E731
        f = lambda: rng.randrange(3, 10)         # noqa: E731
        fc = lambda: rng.randrange(20, 24)       # noqa: E731
        if kind < 0.25:
            lines.append(f"{rng.choice(_INT_OPS)} x{r()}, x{r()}, x{r()}")
        elif kind < 0.40:
            lines.append(f"{rng.choice(_IMM_OPS)} x{r()}, x{r()}, "
                         f"{rng.randrange(0, 16)}")
        elif kind < 0.50:
            off = 4 * rng.randrange(0, 32)
            if rng.random() < 0.5:
                lines.append(f"lw x{r()}, {off}(x8)")
            else:
                lines.append(f"sw x{r()}, {off}(x8)")
        elif kind < 0.60:
            off = 8 * rng.randrange(0, 16)
            if rng.random() < 0.5:
                lines.append(f"fld f{f()}, {off}(x8)")
            else:
                lines.append(f"fsd f{f()}, {off}(x9)")
        elif kind < 0.78:
            dst = fc() if rng.random() < 0.3 else f()
            s1 = fc() if rng.random() < 0.2 else f()
            if rng.random() < 0.3:
                lines.append(f"{rng.choice(_FP_OPS3)} f{dst}, f{s1}, "
                             f"f{f()}, f{f()}")
            else:
                lines.append(f"{rng.choice(_FP_OPS2)} f{dst}, f{s1}, "
                             f"f{f()}")
        elif kind < 0.84:
            lines.append(f"feq.d x{r()}, f{f()}, f{f()}")
        elif kind < 0.90 and pending_label is None:
            pending_label = f"fwd{label}"
            label += 1
            lines.append(f"{rng.choice(_BRANCHES)} x{r()}, x{r()}, "
                         f"{pending_label}")
        elif kind < 0.96:
            body = rng.randrange(1, 4)
            iters = rng.randrange(0, 6)
            mode = rng.choice(("frep.o", "frep.i"))
            stagger = ", 1, 0b0011" if rng.random() < 0.3 else ""
            lines.append(f"li x6, {iters}")
            lines.append(f"{mode} x6, {body - 1}{stagger}")
            for _ in range(body):
                lines.append(f"{rng.choice(_FP_OPS2)} f{f()}, f{f()}, "
                             f"f{f()}")
        elif kind < 0.97:
            lines.append(f"csrr x{r()}, mcycle")
        elif kind < 0.985:
            # Re-kind the chaining registers mid-program: every issue
            # function specialized on the old mask must notice.
            mask = 0
            for reg in (20, 21, 22, 23):
                if rng.random() < 0.5:
                    mask |= 1 << reg
            lines.append(f"li x7, {mask}")
            lines.append("csrrw x0, 0x7C3, x7")
        else:
            lines.append(f"csrrwi x0, 0x7C0, {rng.randrange(2)}")
    if pending_label is not None:
        lines.append(f"{pending_label}:")
    lines.append("ebreak")
    return "\n".join(lines)


def _lockstep_state(cluster: Cluster) -> tuple:
    core, fp = cluster.core, cluster.fp
    return (
        cluster.cycle, core.pc, core.halted, core.stall_until,
        core.waiting_sync is not None, core.barrier_wait,
        tuple(core.regs.values), tuple(core.regs.ready_cycle),
        core._pending_load_rd,
        tuple(fp.fpregs.values), tuple(fp.fpregs.busy),
        fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
        fp.chain.pops, fp.chain.backpressure_events,
        len(fp.sequencer.queue), fp.sequencer._active,
        fp.sequencer.position if fp.sequencer._active else -1,
        tuple((op.completes_at, op.dest, op.dest_is_ssr, op.sync,
               op.value) for op in fp.pipe.in_flight),
        fp.sync_ready, fp._sync_value,
        fp.lsu.loads, fp.lsu.stores,
        cluster.perf.counter_state(),
        cluster.tcdm.total_accesses, cluster.tcdm.total_conflicts,
        bytes(cluster.mem._data[DATA:OUT + 0x400]),
    )


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_lockstep_per_cycle(seed):
    rng = random.Random(1234 + seed)
    source = _random_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    clusters = []
    for engine in (ORACLE, "scalar-v2"):
        make, engine = engine_cluster(engine)
        cluster = make(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        clusters.append(cluster)
    ref, v2 = clusters
    for cycle in range(500):
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), \
            f"seed {seed} diverged at cycle {cycle}\n{source}"


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_run_to_completion_with_fast_forward(seed):
    """End-to-end run() comparison, deadlock and timeout outcomes
    included (the post-halt watchdog of ``Cluster.run``)."""
    rng = random.Random(99 + seed)
    source = _random_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    digests = []
    for engine in (ORACLE, "scalar-v2"):
        make, engine = engine_cluster(engine)
        cluster = make(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        try:
            cluster.run(max_cycles=5_000)
            outcome = "done"
        except Exception as exc:   # deadlocks must match too
            outcome = type(exc).__name__
        digests.append((outcome, machine_digest(cluster)))
    assert digests[0] == digests[1]
