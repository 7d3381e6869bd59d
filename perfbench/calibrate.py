"""Host-speed calibration, interleaved with the measured work.

On a shared host (measured on a 2-vCPU Intel Xeon VM) the same fixed
pure-Python work takes up to twice as long from one minute to the next,
so raw host times drift between two sets of runs of the same code by
more than any useful bound.  The benchmark runs a fixed calibration burst
(benchmark-owned code that no program change can touch) between pieces
of measured work, at moments when nothing else of the benchmark runs,
and reports host times scaled to a reference host speed::

    reported = measured * REFERENCE_BURST_S / median(burst seconds)

The bursts run in a helper process of their own, started once per run
and timed inside it: they share neither the interpreter lock nor the
memory of the benchmark process, so CPU work the program adds in its
own threads (a server loop, a scheduler) slows the measured requests
but not the bursts, and shows in the scaled figures.

The burst is a random walk over a 200,000-entry list of integers (about
9 MB, past the last-level cache), which slows down under contention
much like the simulator's pointer-heavy loop does; an arithmetic loop
or a cache-resident walk tracks it worse.  The raw figures are printed
beside the scaled ones.

Run as a script, this module is the helper: it answers every line on
standard input with the seconds of one burst, until end of input.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

#: Burst time on that VM when uncontended; scaled figures read as
#: seconds on such a host.
REFERENCE_BURST_S = 0.040
_ENTRIES = 200_000
_STEPS = 60_000


class Walk:
    """The burst's data and code; lives in the helper process."""

    def __init__(self):
        order = list(range(_ENTRIES))
        random.Random(1).shuffle(order)
        #: One cycle through every entry, in shuffled order.
        self._next = [0] * _ENTRIES
        for i, j in zip(order, order[1:] + order[:1]):
            self._next[i] = j
        self._value = [i * 3 % 17 for i in range(_ENTRIES)]

    def burst(self) -> float:
        nxt, value = self._next, self._value
        i, acc = 0, 0
        start = time.perf_counter()
        for _ in range(_STEPS):
            acc += value[i] ^ i
            value[i] = acc & 1023
            i = nxt[i]
            if acc & 7 == 3:
                acc >>= 1
        return time.perf_counter() - start


class Calibrator:
    """Runs bursts in the helper process and keeps their seconds."""

    def __init__(self):
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.bursts: list[float] = []

    def burst(self) -> float:
        """Run one calibration burst; returns and records its seconds."""
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        seconds = float(self._helper.stdout.readline())
        self.bursts.append(seconds)
        return seconds

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    @property
    def scale(self) -> float:
        """Factor from measured host seconds to reference seconds."""
        return REFERENCE_BURST_S / statistics.median(self.bursts)


def serve() -> None:
    walk = Walk()
    for _ in sys.stdin:
        print(walk.burst(), flush=True)


if __name__ == "__main__":
    serve()
