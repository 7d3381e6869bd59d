"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark regenerates one figure or claim of the paper and prints a
paper-vs-measured table; ``pytest benchmarks/ --benchmark-only`` is the
reproduction entry point.  Results computed once per session are cached
so the table-printing benches don't re-simulate.
"""

import sys
from pathlib import Path

import pytest

from repro.eval.figures import fig3_data

# The engine benchmarks time the shipped engines against the frozen seed
# interpreter, which lives with the tests as their differential oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


@pytest.fixture(scope="session")
def fig3_results():
    """All ten (kernel, variant) runs of Fig. 3, simulated once."""
    return fig3_data()
