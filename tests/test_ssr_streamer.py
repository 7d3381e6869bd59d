"""SSR streamer (data mover) tests, driven cycle by cycle."""

import numpy as np
import pytest

from repro.mem.memory import Memory
from repro.mem.tcdm import Tcdm
from repro.ssr.config import CfgField, SsrConfigSpace, cfg_addr, \
    split_cfg_addr
from repro.ssr.streamer import SsrStreamer

from oracle import arbitrate, streamer_step


def make_streamer(fifo_depth=4):
    mem = Memory(1 << 16)
    tcdm = Tcdm(mem, num_banks=8)
    streamer = SsrStreamer(0, tcdm, fifo_depth=fifo_depth)
    return mem, tcdm, streamer


def arm_read(streamer, base, n, stride=8, repeat=0):
    streamer.write_cfg(CfgField.BASE, base)
    streamer.write_cfg(CfgField.BOUND0, n)
    streamer.write_cfg(CfgField.STRIDE0, stride)
    streamer.write_cfg(CfgField.REPEAT, repeat)
    streamer.write_cfg(CfgField.CTRL, 0)


def arm_write(streamer, base, n, stride=8):
    streamer.write_cfg(CfgField.BASE, base)
    streamer.write_cfg(CfgField.BOUND0, n)
    streamer.write_cfg(CfgField.STRIDE0, stride)
    streamer.write_cfg(CfgField.REPEAT, 0)
    streamer.write_cfg(CfgField.CTRL, 1)


def tick_oracle(streamer, tcdm, cycles=1):
    """The seed interpreter's per-cycle calls for one lane."""
    for _ in range(cycles):
        streamer_step(streamer)
        arbitrate(tcdm)


def tick(streamer, tcdm, cycles=1):
    """The shipped per-cycle calls for one lane (an unarmed lane has no
    step)."""
    for _ in range(cycles):
        if streamer.step is not None:
            streamer.step()
        tcdm.arbitrate()


#: Every streamer test runs on the oracle and on the shipped streamer.
TICKS = (tick_oracle, tick)


def test_read_stream_delivers_in_order():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        data = np.arange(8, dtype=np.float64)
        mem.write_array(0x100, data)
        arm_read(s, 0x100, 8)
        out = []
        for _ in range(40):
            tick(s, tcdm)
            while s.can_pop():
                out.append(s.pop())
        assert out == list(data)
        assert s.done


def test_read_stream_prefetch_bounded_by_fifo():
    for tick in TICKS:
        mem, tcdm, s = make_streamer(fifo_depth=2)
        mem.write_array(0x100, np.arange(16, dtype=np.float64))
        arm_read(s, 0x100, 16)
        tick(s, tcdm, cycles=10)   # no pops at all
        # At most fifo_depth elements buffered (plus none lost).
        assert len(s._fifo) <= 2
        assert s.data_port.reads <= 3


def test_repeat_serves_each_element_multiple_times():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        mem.write_array(0x100, np.array([1.0, 2.0]))
        arm_read(s, 0x100, 2, repeat=2)
        out = []
        for _ in range(30):
            tick(s, tcdm)
            while s.can_pop():
                out.append(s.pop())
        assert out == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        # Each element is fetched from memory only once.
        assert s.data_port.reads == 2


def test_available_pops_accounting():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        mem.write_array(0x100, np.array([1.0, 2.0]))
        arm_read(s, 0x100, 2, repeat=1)
        for _ in range(10):
            tick(s, tcdm)
        assert s.available_pops() == 4
        s.pop()
        assert s.available_pops() == 3


def test_pop_empty_raises():
    mem, tcdm, s = make_streamer()
    arm_read(s, 0x100, 4)
    with pytest.raises(RuntimeError, match="empty"):
        s.pop()


def test_write_stream_drains_to_memory():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        arm_write(s, 0x200, 4)
        values = [1.5, -2.5, 3.5, 4.5]
        pushed = 0
        for _ in range(40):
            if pushed < 4 and s.can_push():
                s.push(values[pushed])
                pushed += 1
            tick(s, tcdm)
        assert s.done
        assert list(mem.read_array(0x200, (4,))) == values


def test_write_stream_strided():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        arm_write(s, 0x200, 3, stride=16)
        for v in (1.0, 2.0, 3.0):
            while not s.can_push():
                tick(s, tcdm)
            s.push(v)
            tick(s, tcdm)
        for _ in range(20):
            tick(s, tcdm)
        assert mem.read_f64(0x200) == 1.0
        assert mem.read_f64(0x210) == 2.0
        assert mem.read_f64(0x220) == 3.0


def test_push_full_fifo_raises():
    mem, tcdm, s = make_streamer(fifo_depth=2)
    arm_write(s, 0x200, 8)
    s.push(1.0)
    s.push(2.0)
    assert not s.can_push()
    with pytest.raises(RuntimeError, match="full"):
        s.push(3.0)


def test_indirect_read_gathers():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        data = np.arange(16, dtype=np.float64) * 10
        idx = np.array([3, 0, 7, 7, 1], dtype=np.uint32)
        mem.write_array(0x400, data)
        mem.write_array(0x100, idx)
        s.write_cfg(CfgField.BASE, 0x400)
        s.write_cfg(CfgField.BOUND0, len(idx))
        s.write_cfg(CfgField.STRIDE0, 0)
        s.write_cfg(CfgField.REPEAT, 0)
        s.write_cfg(CfgField.IDX_BASE, 0x100)
        s.write_cfg(CfgField.IDX_CFG, 2 | (3 << 4))   # 4-byte idx, shift 3
        s.write_cfg(CfgField.CTRL, 2)                 # read + indirect
        out = []
        for _ in range(60):
            tick(s, tcdm)
            while s.can_pop():
                out.append(s.pop())
        assert out == [30.0, 0.0, 70.0, 70.0, 10.0]
        # One index fetch and one data fetch per element.
        assert s.idx_port.reads == 5
        assert s.data_port.reads == 5


@pytest.mark.parametrize("ticker", TICKS, ids=["seed", "v2"])
def test_indirect_write_scatters(ticker):
    """An indirect write stream prefetches its indices while the FPU
    pushes and lands value ``k`` at ``base + (idx[k] << shift)``."""
    mem, tcdm, s = make_streamer()
    idx = np.array([5, 0, 9, 2], dtype=np.uint32)
    mem.write_array(0x100, idx)
    s.write_cfg(CfgField.BASE, 0x400)
    s.write_cfg(CfgField.BOUND0, len(idx))
    s.write_cfg(CfgField.STRIDE0, 0)
    s.write_cfg(CfgField.REPEAT, 0)
    s.write_cfg(CfgField.IDX_BASE, 0x100)
    s.write_cfg(CfgField.IDX_CFG, 2 | (3 << 4))   # 4-byte idx, shift 3
    s.write_cfg(CfgField.CTRL, 3)                 # write + indirect
    values = [1.5, -2.5, 3.5, 4.5]
    for v in values:
        s.push(v)
    ticker(s, tcdm, cycles=80)
    assert s.idx_port.reads == 4
    assert s.data_port.writes == 4
    assert s.elements_moved == 4
    assert s.done
    for k, v in zip(idx, values):
        assert mem.read_f64(0x400 + (int(k) << 3)) == v


def test_reconfig_while_active_raises():
    mem, tcdm, s = make_streamer()
    mem.write_array(0x100, np.zeros(4))
    arm_read(s, 0x100, 4)
    with pytest.raises(RuntimeError, match="active"):
        s.write_cfg(CfgField.BASE, 0x200)


def test_rearm_after_completion():
    for tick in TICKS:
        mem, tcdm, s = make_streamer()
        mem.write_array(0x100, np.array([1.0]))
        mem.write_array(0x180, np.array([9.0]))
        arm_read(s, 0x100, 1)
        for _ in range(10):
            tick(s, tcdm)
        assert s.pop() == 1.0
        assert s.done
        arm_read(s, 0x180, 1)
        for _ in range(10):
            tick(s, tcdm)
        assert s.pop() == 9.0


def test_cfg_addr_split_roundtrip():
    for ssr in range(3):
        for field in (0, 1, 5, 14, 16):
            assert split_cfg_addr(cfg_addr(ssr, field)) == (ssr, field)


def test_cfgspace_shadow_read_back():
    space = SsrConfigSpace(1)
    space.write(CfgField.BOUND0 + 2, 13, active=False)
    space.write(CfgField.STRIDE0, -24 & 0xFFFFFFFF, active=False)
    space.write(CfgField.BASE, 0x800, active=False)
    assert space.read(CfgField.BOUND0 + 2) == 13
    assert space.read(CfgField.STRIDE0) == -24     # sign restored
    assert space.read(CfgField.BASE) == 0x800


def test_cfgspace_unknown_field():
    space = SsrConfigSpace(0)
    with pytest.raises(ValueError, match="unknown config field"):
        space.write(40, 1, active=False)
