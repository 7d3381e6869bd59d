"""Campaign execution: serial or process-parallel, with result caching.

Each simulation is a single-threaded pure-Python :class:`Cluster` run, so
fanning points out over a :class:`~concurrent.futures.ProcessPoolExecutor`
is a near-linear wall-clock win on multi-core hosts.  The parent process
owns the cache; workers only compute and return picklable results, so
there is exactly one writer and no lock file.

Failure isolation: a point that raises is captured as an ``"error"``
outcome with its traceback, and a broken pool marks the remaining
points instead of raising.  One bad point cannot sink a campaign.

The per-point ``timeout`` is enforced *inside* the executing process
via ``SIGALRM`` (wall-clock, measured from the point's actual execution
start -- queue wait behind slow siblings is never charged), so a
timed-out worker survives and immediately picks up the next point.  A
generous parent-side backstop still abandons workers that hang somewhere
signals cannot reach.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from concurrent.futures import BrokenExecutor, CancelledError
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field

from repro.api.cancel import CancelToken
from repro.api.execute import (
    DEFAULT_MAX_CYCLES,
    apply_overrides,
    execute_workload,
    load_backends,
)
from repro.api.parse import parse_engine
from repro.api.result import Result
from repro.api.workloads import Workload
from repro.core.config import CoreConfig
from repro.obs import spans as _obs
from repro.obs.metrics import METRICS, campaign_obs
from repro.sweep.cache import ResultCache, package_version, point_key, \
    result_to_record
from repro.sweep.spec import SweepSpec

__all__ = [
    "Campaign",
    "DEFAULT_MAX_CYCLES",
    "Outcome",
    "SweepRunner",
    "apply_overrides",
    "execute_point",
    "point_worker",
]

#: Pre-1.5 name of :func:`repro.api.execute.execute_workload` (same
#: function; the unit of work was renamed Point -> Workload).
execute_point = execute_workload


class _PointTimeout(Exception):
    """Raised by the SIGALRM handler when a point's budget expires."""


class _PoolWedged(Exception):
    """A queued future can no longer start: its slot is held by an
    abandoned (signal-immune) worker."""


def _raise_point_timeout(signum, frame):
    raise _PointTimeout()


def _pool_worker_init() -> None:
    """Pool workers ignore SIGINT: a terminal Ctrl-C reaches the whole
    process group, and the *parent* owns the shutdown story (cooperative
    cancellation or a clean drain) -- a worker that dies mid-point to
    the shared signal would break the pool instead.  Workers stay bound
    by their per-point SIGALRM budgets and die with the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def point_worker(point: Workload, base_cfg: CoreConfig | None,
            max_cycles: int | None,
            timeout: float | None = None,
            engine: str | None = None,
            obs_dir: str | None = None) -> tuple[str, object, float]:
    """Pool entry point: never raises, always returns a picklable triple.

    The timeout alarm only engages on platforms with ``setitimer`` and
    when running on the main thread (always true for pool workers);
    elsewhere points simply run to completion.

    ``obs_dir`` carries the parent's telemetry sink: when set, the
    worker (re-)enables observability writing its own per-process span
    segment there and wraps the point in a ``sweep.point`` span.
    """
    start = time.perf_counter()
    _obs.ensure_worker(obs_dir)
    use_alarm = (timeout is not None and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    old_handler = None
    try:
        if use_alarm:
            old_handler = signal.signal(signal.SIGALRM,
                                        _raise_point_timeout)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 1e-6))
        if _obs.ENABLED:
            with _obs.tracer().span("sweep.point", "sweep",
                                    args={"point": point.label}) as sargs:
                result = execute_point(point, base_cfg=base_cfg,
                                       max_cycles=max_cycles,
                                       engine=engine)
                sargs["status"] = "ok"
        else:
            result = execute_point(point, base_cfg=base_cfg,
                                   max_cycles=max_cycles, engine=engine)
        return "ok", result, time.perf_counter() - start
    except _PointTimeout:
        return "timeout", f"exceeded {timeout}s budget", \
            time.perf_counter() - start
    except Exception:
        return "error", traceback.format_exc(), time.perf_counter() - start
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


#: Pre-1.9 private name of :func:`point_worker` (same function; it went
#: public as the serve layer's executor-bridge entry point).
_worker = point_worker


@dataclass
class Outcome:
    """One point's fate in a campaign."""

    point: Workload
    status: str                  # "ok" | "error" | "timeout" | "cancelled"
    result: Result | None = None
    error: str | None = None
    seconds: float = 0.0
    cached: bool = False
    key: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict:
        """JSON-ready form (used by ``--json`` export)."""
        return {
            "point": self.point.canonical(),
            "label": self.point.label,
            "status": self.status,
            "cached": self.cached,
            "seconds": round(self.seconds, 4),
            "error": self.error,
            "result": result_to_record(self.result) if self.result else None,
        }


@dataclass
class Campaign:
    """All outcomes of one :meth:`SweepRunner.run`, in point order."""

    outcomes: list[Outcome] = field(default_factory=list)
    seconds: float = 0.0
    #: Aggregated telemetry (``repro.obs.metrics.campaign_obs``); only
    #: filled when observability was enabled during the run.
    obs: dict | None = None
    #: Triage accounting (``Session.map(fidelity="triage")``): point /
    #: estimated / selected counts.  ``None`` for ordinary campaigns.
    triage: dict | None = None
    #: True when the campaign stopped early -- a tripped
    #: :class:`~repro.api.cancel.CancelToken` or a KeyboardInterrupt --
    #: so undispatched points carry ``"cancelled"`` outcomes.
    interrupted: bool = False

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def error_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def timeout_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "timeout")

    @property
    def cancelled_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cancelled")

    @property
    def cached_count(self) -> int:
        return sum(o.cached for o in self.outcomes)

    @property
    def hit_rate(self) -> float:
        return self.cached_count / len(self.outcomes) if self.outcomes \
            else 0.0

    def summary(self) -> dict:
        """JSON-ready campaign roll-up (counts, hit rate, telemetry)."""
        summary = {
            "points": len(self.outcomes),
            "ok": self.ok_count,
            "errors": self.error_count,
            "timeouts": self.timeout_count,
            "cancelled": self.cancelled_count,
            "interrupted": self.interrupted,
            "cached_count": self.cached_count,
            "hit_rate": round(self.hit_rate, 4),
            "seconds": round(self.seconds, 3),
        }
        if self.obs is not None:
            summary["obs"] = self.obs
        if self.triage is not None:
            summary["triage"] = self.triage
        return summary

    def results(self) -> dict[Workload, Result]:
        """Workload -> result for every successful outcome."""
        return {o.point: o.result for o in self.outcomes if o.ok}

    def raise_on_failure(self) -> None:
        """Propagate the first failure (legacy serial-loop semantics)."""
        for outcome in self.outcomes:
            if not outcome.ok:
                raise RuntimeError(
                    f"sweep point {outcome.point.label} "
                    f"{outcome.status}:\n{outcome.error or ''}")


class SweepRunner:
    """Executes campaigns of points with caching and process fan-out.

    ``workers=None`` sizes the pool to the host's cores; ``workers<=1``
    runs serially in-process (no pickling -- results are the very objects
    the eval runner produced, which the figure harnesses rely on for
    bit-identical reproduction).

    ``max_cycles=None`` (default) uses the per-workload backend budgets
    (5M single-cluster, 20M system) -- identical to ``Session.run``, so
    what a cache holds never depends on which front door simulated it.
    """

    def __init__(self, cache: ResultCache | str | None = None,
                 workers: int | None = None,
                 timeout: float | None = None,
                 base_cfg: CoreConfig | None = None,
                 max_cycles: int | None = None,
                 engine: str | None = None):
        cache = ResultCache.coerce(cache)
        if engine is not None:
            parse_engine(engine)
        self.cache = cache
        self.workers = workers
        self.timeout = timeout
        self.base_cfg = base_cfg
        self.max_cycles = max_cycles
        #: Campaign-wide engine selection; a per-point ``("engine", ...)``
        #: override still wins.  Part of every cache key.
        self.engine = engine

    def run(self, spec_or_points, progress=None,
            cancel: CancelToken | None = None) -> Campaign:
        """Execute a :class:`SweepSpec` or an explicit list of points.

        ``progress(outcome, done, total)`` is called as each outcome
        lands (cache hits first, then live results in completion order).

        ``cancel`` is a cooperative :class:`~repro.api.cancel.
        CancelToken`: once tripped, no further point is dispatched --
        in-flight points drain (bounded by their own timeouts, results
        kept and cached) and every undispatched point lands as a
        ``"cancelled"`` outcome.  A KeyboardInterrupt (SIGINT without a
        token) is handled the same way, except in-flight workers are
        terminated instead of drained; either way the campaign returns
        with :attr:`Campaign.interrupted` set instead of raising, the
        failure log holds everything that already failed, and no pool
        worker is orphaned.
        """
        if isinstance(spec_or_points, SweepSpec):
            points = spec_or_points.points()
        else:
            points = list(spec_or_points)
        start = time.perf_counter()
        version = package_version()

        outcomes: dict[int, Outcome] = {}
        pending: list[tuple[int, Workload, str | None]] = []
        for index, point in enumerate(points):
            key = None
            if self.cache is not None:
                key = point_key(point, version, self.base_cfg,
                                engine=self.engine)
                cached = self.cache.get(key)
                if cached is not None:
                    outcomes[index] = Outcome(
                        point=point, status="ok", result=cached,
                        cached=True, key=key)
                    if _obs.ENABLED:
                        METRICS.inc("cache.hit")
                        _obs.tracer().instant(
                            "cache.hit", "sweep",
                            args={"point": point.label})
                    continue
            pending.append((index, point, key))

        done = 0
        if progress:
            for index in sorted(outcomes):
                done += 1
                progress(outcomes[index], done, len(points))
        done = len(outcomes)

        interrupted = False
        if pending:
            serial = self.workers is not None and self.workers <= 1
            execute = self._run_serial if serial else self._run_parallel
            stream = execute(pending, cancel)
            while True:
                try:
                    index, outcome = next(stream)
                except StopIteration as stop:
                    interrupted = bool(stop.value)
                    break
                outcomes[index] = outcome
                if outcome.ok and not outcome.cached and \
                        self.cache is not None:
                    self.cache.put(outcome.key, outcome.point,
                                   outcome.result, outcome.seconds,
                                   version)
                elif outcome.status in ("error", "timeout") and \
                        self.cache is not None and \
                        outcome.key is not None:
                    # Resume hook: failures are never served as results
                    # (the next campaign still retries them), but the
                    # store remembers the last failed outcome per key so
                    # `repro audit` can classify error/timeout gaps and
                    # budget retries from the store alone.  Cancelled
                    # points never ran: they are not failures.
                    self.cache.put_failure(
                        outcome.key, outcome.point, outcome.status,
                        outcome.error, outcome.seconds, version)
                if _obs.ENABLED:
                    if outcome.key is not None:
                        METRICS.inc("cache.miss")
                    METRICS.observe("sweep.point_seconds",
                                    outcome.seconds)
                done += 1
                if progress:
                    progress(outcome, done, len(points))

        ordered = [outcomes[i] for i in sorted(outcomes)]
        campaign = Campaign(outcomes=ordered,
                            seconds=time.perf_counter() - start,
                            interrupted=interrupted)
        if _obs.ENABLED:
            campaign.obs = campaign_obs(ordered, campaign.seconds)
        return campaign

    def _run_serial(self, pending, cancel: CancelToken | None = None):
        obs_dir = _obs.sink_dir()
        interrupted = False
        for index, point, key in pending:
            if interrupted or (cancel is not None and cancel.cancelled):
                yield index, Outcome(
                    point=point, status="cancelled", key=key,
                    error="interrupted before dispatch" if interrupted
                    else "cancelled before dispatch")
                continue
            try:
                status, payload, seconds = point_worker(
                    point, self.base_cfg, self.max_cycles,
                    self.timeout, self.engine, obs_dir)
            except KeyboardInterrupt:
                interrupted = True
                yield index, Outcome(
                    point=point, status="cancelled", key=key,
                    error="interrupted mid-run (SIGINT)")
                continue
            yield index, self._outcome(point, key, status, payload, seconds)
        return interrupted

    def _run_parallel(self, pending, cancel: CancelToken | None = None):
        import os
        from concurrent.futures import ProcessPoolExecutor

        workers = self.workers or os.cpu_count() or 1
        workers = min(workers, len(pending))
        obs_dir = _obs.sink_dir()
        load_backends()  # forked workers inherit the simulator
        executor = ProcessPoolExecutor(max_workers=workers,
                                       initializer=_pool_worker_init)
        futures = [(index, point, key,
                    executor.submit(point_worker, point, self.base_cfg,
                                    self.max_cycles, self.timeout,
                                    self.engine, obs_dir))
                   for index, point, key in pending]
        abandoned = False
        interrupted = False
        # Eager cancellation: workers drain the executor queue in the
        # same FIFO order this loop awaits futures, so by the time the
        # loop *reaches* a position its future is usually already
        # running -- a lazy per-iteration ``future.cancel()`` loses
        # that race every time and the whole campaign drains.  A tiny
        # watcher thread reacts the moment the token trips and sweeps
        # ``cancel()`` over every still-queued future at once; the loop
        # below then just observes ``future.cancelled()``.
        watch_stop = threading.Event()
        watcher = None
        if cancel is not None:
            def _watch() -> None:
                while not watch_stop.is_set():
                    if cancel.wait(0.05):
                        for _, _, _, queued in futures:
                            queued.cancel()
                        return
            watcher = threading.Thread(
                target=_watch, name="sweep-cancel-watcher", daemon=True)
            watcher.start()
        try:
            for pos, (index, point, key, future) in enumerate(futures):
                if interrupted:
                    future.cancel()
                if future.cancelled():
                    # Never started: free to drop.  Started points keep
                    # draining (token path) so their results land.
                    yield index, Outcome(
                        point=point, status="cancelled", key=key,
                        error="cancelled before dispatch")
                    continue
                if interrupted:
                    # Its worker was terminated by the interrupt below.
                    yield index, Outcome(
                        point=point, status="cancelled", key=key,
                        error="interrupted mid-run (SIGINT)")
                    continue
                try:
                    status, payload, seconds = self._await(
                        future, pool_wedged=abandoned)
                except CancelledError:
                    # The watcher won a race against this very future.
                    yield index, Outcome(
                        point=point, status="cancelled", key=key,
                        error="cancelled before dispatch")
                    continue
                except _PoolWedged:
                    future.cancel()
                    yield index, Outcome(
                        point=point, status="timeout", key=key,
                        error="never started: pool wedged behind a hung "
                              "worker")
                    continue
                except FutureTimeout:
                    future.cancel()
                    abandoned = True
                    yield index, Outcome(
                        point=point, status="timeout", key=key,
                        seconds=self.timeout or 0.0,
                        error=f"exceeded {self.timeout}s budget")
                    continue
                except BrokenExecutor:
                    yield index, Outcome(
                        point=point, status="error", key=key,
                        error="worker pool broke (worker died?)")
                    continue
                except KeyboardInterrupt:
                    # Workers ignore SIGINT (initializer), so the pool
                    # is still intact here: cancel everything queued,
                    # terminate the in-flight workers, report the rest
                    # as cancelled.  Terminated processes join fast, so
                    # the finally-shutdown below cannot orphan them.
                    interrupted = True
                    for _, _, _, pending_future in futures[pos + 1:]:
                        pending_future.cancel()
                    for proc in list(getattr(executor, "_processes",
                                             {}).values()):
                        proc.terminate()
                    yield index, Outcome(
                        point=point, status="cancelled", key=key,
                        error="interrupted mid-run (SIGINT)")
                    continue
                yield index, self._outcome(point, key, status, payload,
                                           seconds)
        finally:
            watch_stop.set()
            if watcher is not None:
                watcher.join(timeout=1.0)
            # Abandoned workers may still be simulating; don't block on
            # them, but reap cleanly when everything completed (or was
            # terminated by an interrupt).
            executor.shutdown(wait=not abandoned,
                              cancel_futures=abandoned or interrupted)
        return interrupted

    def _await(self, future, pool_wedged: bool = False):
        """Wait for one future, with a hung-worker backstop.

        The real budget is the worker's own SIGALRM; the backstop only
        abandons workers stuck somewhere signals cannot interrupt.  The
        clock starts once the future leaves the executor's queue
        (prefetch makes that slightly early, which the 3x-plus-margin
        absorbs), so points queued behind slow siblings are never
        falsely charged.  Once a worker has been abandoned its pool slot
        may never free, so the queue wait itself is then bounded too.
        """
        if self.timeout is None:
            return future.result()
        backstop = 3.0 * self.timeout + 30.0
        start_deadline = time.monotonic() + backstop if pool_wedged \
            else None
        while not (future.running() or future.done()):
            if start_deadline is not None and \
                    time.monotonic() > start_deadline:
                raise _PoolWedged()
            time.sleep(0.005)
        return future.result(timeout=backstop)

    @staticmethod
    def _outcome(point, key, status, payload, seconds) -> Outcome:
        if status == "ok":
            return Outcome(point=point, status="ok", result=payload,
                           seconds=seconds, key=key)
        return Outcome(point=point, status=status, error=payload,
                       seconds=seconds, key=key)
