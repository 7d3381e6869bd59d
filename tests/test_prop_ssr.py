"""Property-based tests of the SSR address generation and streamers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm
from repro.ssr.address_gen import AffineGenerator
from repro.ssr.config import CfgField, SsrConfig
from repro.ssr.streamer import SsrStreamer

from oracle import arbitrate, streamer_step


def tick_oracle(streamer, tcdm):
    """One cycle of the seed interpreter's streamer and arbiter."""
    streamer_step(streamer)
    arbitrate(tcdm)


def tick(streamer, tcdm):
    """One cycle of the shipped streamer and arbiter."""
    if streamer.step is not None:
        streamer.step()
    tcdm.arbitrate()


#: Every streamer property holds on the oracle and the shipped code.
TICKS = (tick_oracle, tick)


@st.composite
def affine_configs(draw):
    ndims = draw(st.integers(1, 4))
    bounds = [draw(st.integers(1, 5)) for _ in range(ndims)]
    strides = [draw(st.integers(-4, 4)) * 8 for _ in range(ndims)]
    base = draw(st.integers(0, 1 << 16)) * 8
    repeat = draw(st.integers(0, 3))
    cfg = SsrConfig(base=base,
                    bounds=bounds + [1] * (6 - ndims),
                    strides=strides + [0] * (6 - ndims),
                    ndims=ndims, repeat=repeat)
    return cfg


def reference_addresses(cfg: SsrConfig) -> list[int]:
    """Plain-python odometer walk, innermost dimension first."""
    out = []
    idx = [0] * cfg.ndims
    for _ in range(cfg.total_elements()):
        out.append(cfg.base + sum(idx[d] * cfg.strides[d]
                                  for d in range(cfg.ndims)))
        for d in range(cfg.ndims):
            idx[d] += 1
            if idx[d] < cfg.bounds[d]:
                break
            idx[d] = 0
    return out


@given(affine_configs())
@settings(max_examples=200)
def test_affine_generator_matches_reference(cfg):
    gen = AffineGenerator(cfg)
    assert gen.all_addresses() == reference_addresses(cfg)


@given(affine_configs())
@settings(max_examples=100)
def test_affine_element_count(cfg):
    gen = AffineGenerator(cfg)
    assert len(gen.all_addresses()) == cfg.total_elements()


@st.composite
def stream_cases(draw):
    n = draw(st.integers(1, 24))
    stride_elems = draw(st.sampled_from([1, 2, 3]))
    repeat = draw(st.integers(0, 2))
    fifo_depth = draw(st.integers(1, 6))
    return n, stride_elems, repeat, fifo_depth


@given(stream_cases())
@settings(max_examples=60, deadline=None)
def test_read_streamer_delivers_gather(case):
    for tick in TICKS:
        n, stride_elems, repeat, fifo_depth = case
        mem = Memory(1 << 16)
        tcdm = Tcdm(mem, num_banks=8)
        streamer = SsrStreamer(0, tcdm, fifo_depth=fifo_depth)
        data = np.arange(n * stride_elems, dtype=np.float64) + 1.0
        mem.write_array(0x400, data)

        streamer.write_cfg(CfgField.BASE, 0x400)
        streamer.write_cfg(CfgField.BOUND0, n)
        streamer.write_cfg(CfgField.STRIDE0, stride_elems * 8)
        streamer.write_cfg(CfgField.REPEAT, repeat)
        streamer.write_cfg(CfgField.CTRL, 0)

        out = []
        for _ in range(20 * n + 40):
            tick(streamer, tcdm)
            while streamer.can_pop():
                out.append(streamer.pop())
        expected = list(np.repeat(data[::stride_elems], repeat + 1))
        assert out == expected
        assert streamer.done
        # Memory traffic is independent of the repeat factor.
        assert streamer.data_port.reads == n


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64), min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_write_streamer_roundtrip(values):
    for tick in TICKS:
        mem = Memory(1 << 16)
        tcdm = Tcdm(mem, num_banks=8)
        streamer = SsrStreamer(1, tcdm, fifo_depth=4)
        streamer.write_cfg(CfgField.BASE, 0x800)
        streamer.write_cfg(CfgField.BOUND0, len(values))
        streamer.write_cfg(CfgField.STRIDE0, 8)
        streamer.write_cfg(CfgField.REPEAT, 0)
        streamer.write_cfg(CfgField.CTRL, 1)

        pushed = 0
        for _ in range(20 * len(values) + 40):
            if pushed < len(values) and streamer.can_push():
                streamer.push(values[pushed])
                pushed += 1
            tick(streamer, tcdm)
            if streamer.done:
                break
        assert streamer.done
        out = list(mem.read_array(0x800, (len(values),)))
        assert out == values
