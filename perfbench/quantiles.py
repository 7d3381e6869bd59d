"""Percentiles with the sample-count rule, and failure accounting.

The median is always reported.  A higher percentile is reported only
when at least :data:`MIN_BEYOND` samples lie beyond it: p90 needs 100
samples and p99 needs 1000.
A failed, refused or timed-out operation is recorded as an infinite
latency, so it counts as missing every latency limit and pushes the
percentiles up instead of silently dropping out of them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

MIN_BEYOND = 10
FAILED = math.inf


def min_samples(pct: float) -> int:
    """Smallest sample count that supports percentile ``pct``."""
    if pct <= 50:
        return 1
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - pct) - 1e-9)


def supported(pct: float, count: int) -> bool:
    return count >= min_samples(pct)


def percentile(samples: list[float], pct: float) -> float:
    """``pct``-th percentile of ``samples`` (inclusive method).

    Raises ``ValueError`` when the sample count does not support it.
    """
    if not supported(pct, len(samples)):
        raise ValueError(
            f"p{pct:g} needs {min_samples(pct)} samples, got "
            f"{len(samples)}")
    if pct == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == FAILED:
        return FAILED if rank > lo or ordered[lo] == FAILED \
            else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Ops:
    """Latency samples of one operation class plus its failure count."""

    name: str
    samples: list[float] = field(default_factory=list)
    failed: int = 0

    def ok(self, seconds: float) -> None:
        self.samples.append(seconds)

    def fail(self) -> None:
        self.failed += 1
        self.samples.append(FAILED)

    def pct_ms(self, pct: float) -> float:
        return 1e3 * percentile(self.samples, pct)
