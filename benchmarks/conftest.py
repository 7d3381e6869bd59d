"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark regenerates one figure or claim of the paper and prints a
paper-vs-measured table; ``pytest benchmarks/ --benchmark-only`` is the
reproduction entry point.  Results computed once per session are cached
so the table-printing benches don't re-simulate.
"""

import statistics
import sys
from pathlib import Path

import pytest

from repro.eval.figures import fig3_data

_REPO = Path(__file__).resolve().parents[1]
# The engine benchmarks time the shipped engines against the frozen seed
# interpreter, which lives with the tests as their differential oracle.
sys.path.insert(0, str(_REPO / "tests"))
sys.path.insert(0, str(_REPO / "scripts"))

from check_bench_regression import GATED, calibrate  # noqa: E402

#: Calibration bursts of this session, one after each gated benchmark.
_BURSTS: list[float] = []


@pytest.fixture(scope="session")
def fig3_results():
    """All ten (kernel, variant) runs of Fig. 3, simulated once."""
    return fig3_data()


@pytest.fixture(autouse=True)
def calibration_burst(request):
    """Time one calibration burst after each gated benchmark, so the
    machine-speed scale the regression gate applies is sampled across
    the whole session rather than once (see
    ``scripts/check_bench_regression.py``)."""
    yield
    bench = request.node.funcargs.get("benchmark")
    if getattr(bench, "stats", None) is None \
            or not any(p in request.node.name for p in GATED):
        return   # not a gated benchmark, or timing disabled
    _BURSTS.append(calibrate())


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Record the bursts, and their median, in the JSON report."""
    if _BURSTS:
        output_json["calibration"] = {
            "bursts_seconds": [round(b, 6) for b in _BURSTS],
            "seconds": round(statistics.median(_BURSTS), 6),
        }
