"""Tests of the benchmark's own logic: the percentile rule, failure
counting, seed determinism, self time and the trace format.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import time

import pytest

import mix
from quantiles import FAILED, Ops, min_samples, percentile, supported
from tracer import Tracer, chrome_trace, self_times


# -- percentile rule --------------------------------------------------------

@pytest.mark.parametrize("pct, needed", [(50, 1), (90, 100), (99, 1000),
                                         (75, 40)])
def test_percentile_needs_ten_samples_beyond_it(pct, needed):
    assert min_samples(pct) == needed
    assert supported(pct, needed)
    assert not supported(pct, needed - 1)


def test_unsupported_percentile_raises_with_sample_counts():
    with pytest.raises(ValueError, match="p99 needs 1000 samples, got 999"):
        percentile([1.0] * 999, 99)
    assert percentile([1.0] * 1000, 99) == 1.0


def test_percentile_values():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 50) == 50.5
    assert percentile(samples, 90) == pytest.approx(90.1)
    assert percentile([3.0], 50) == 3.0


# -- failure counting -------------------------------------------------------

def test_refused_or_timed_out_request_counts_as_failed_and_slow():
    ops = Ops("hit")
    for _ in range(95):
        ops.ok(0.001)
    for _ in range(5):
        ops.fail()
    assert len(ops.samples) == 100 and ops.failed == 5
    # A failure misses every latency limit: it is slower than any
    # completed request, so it lands in the tail.
    assert ops.pct_ms(90) == pytest.approx(1.0)
    assert max(ops.samples) == FAILED
    many = Ops("hit")
    for _ in range(85):
        many.ok(0.001)
    for _ in range(15):
        many.fail()
    assert math.isinf(many.pct_ms(90))
    assert many.pct_ms(50) == pytest.approx(1.0)


# -- seed determinism -------------------------------------------------------

def test_same_seed_same_workloads():
    for index in (0, 1):
        assert mix.fig3_order(7, index) == mix.fig3_order(7, index)
        assert mix.scaling_vecops(7, index) == mix.scaling_vecops(7, index)
        assert mix.analytical_fill(7, index) == \
            mix.analytical_fill(7, index)
        assert mix.serve_round(7, index) == mix.serve_round(7, index)


def _family(work) -> str:
    if work.kernel == "vecop":
        return "vecop"
    return "system" if work.system else "stencil"


def test_different_seed_changes_inputs_not_sizes_or_mix():
    a, b = mix.serve_round(1), mix.serve_round(2)
    assert set(a.cold) != set(b.cold)
    assert len(a.cold) == len(b.cold) and len(a.ops) == len(b.ops)
    assert len(a.hit_set) == len(b.hit_set)
    for plan in (a, b):
        kinds = [kind for kind, _ in plan.ops]
        assert kinds.count("hit") == mix.SERVE_HITS
        assert kinds.count("cold") == len(plan.cold)
        assert len(set(plan.cold)) == len(plan.cold)
        assert not set(plan.cold) & set(plan.hit_set)
        assert sorted(w.kernel for w in plan.cold) == \
            sorted(w.kernel for w in a.cold)

    fa, fb = mix.analytical_fill(1), mix.analytical_fill(2)
    assert set(fa) != set(fb)
    assert len(fa) == len(set(fa)) == len(fb) == len(set(fb)) \
        == mix.FILL_RECORDS
    assert sorted(map(_family, fa)) == sorted(map(_family, fb))

    va, vb = mix.scaling_vecops(1), mix.scaling_vecops(2)
    assert va != vb
    bins = mix.SCALING_VECOP_BINS * len(mix.VECOP_VARIANTS)
    for vecops in (va, vb):
        assert len(vecops) == len(bins)
        assert all(lo <= w.n < hi and w.loop_mode == "frep"
                   for w, (lo, hi) in zip(vecops, bins))
    assert [w.variant for w in va] == [w.variant for w in vb]

    assert mix.fig3_order(1) != mix.fig3_order(2)
    assert sorted(mix.fig3_order(1)) == sorted(mix.fig3_order(2))


def test_rounds_of_one_seed_differ():
    assert set(mix.serve_round(3, 0).cold) != set(mix.serve_round(3, 1).cold)


# -- tracing ----------------------------------------------------------------

def _span(sid, parent, start, end, name="x"):
    return {"name": name, "id": sid, "parent": parent, "pid": 1, "tid": 1,
            "request": None, "args": {}, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span("a", None, 0, 100, "outer"),
             _span("b", "a", 10, 30, "inner"),
             _span("c", "a", 50, 90, "inner"),
             _span("d", "c", 60, 70, "leaf")]
    times = self_times(spans)
    assert times["outer"]["self_s"] == pytest.approx(40e-9)
    assert times["inner"]["self_s"] == pytest.approx(50e-9)
    assert times["inner"]["calls"] == 2
    assert times["leaf"]["total_s"] == pytest.approx(10e-9)


class _Thing:
    def work(self, n):
        time.sleep(0.001)
        return self.inner(n)

    def inner(self, n):
        return n * 2


def test_wrap_records_nested_spans_and_uninstalls(tmp_path):
    tr = Tracer(tmp_path)
    original = _Thing.work
    tr.wrap(_Thing, "work", "outer", request=lambda a, k: f"req{a[1]}")
    tr.wrap(_Thing, "inner", "inner",
            after=lambda span, a, k, out: span["args"].update(out=out))
    assert _Thing().work(21) == 42
    tr.uninstall()
    assert _Thing.work is original
    spans = {s["name"]: s for s in tr.collect()}
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    assert spans["inner"]["request"] == "req21"
    assert spans["inner"]["args"]["out"] == 42
    assert self_times(list(spans.values()))["outer"]["self_s"] > 0


def test_chrome_trace_passes_the_repo_schema_check(tmp_path):
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema", root / "scripts" / "check_trace_schema.py")
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    spans = [_span("a", None, 1000, 5000, "api.execute"),
             _span("b", "a", 2000, 3000, "core.run")]
    spans.append(dict(_span("c", None, 1500, 2500, "sweep.point"), pid=2))
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(chrome_trace(spans, {1: "main"})))
    assert checker.validate_trace(str(path)) == []
