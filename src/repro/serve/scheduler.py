"""Priority scheduler: cache-first, coalescing, pool-dispatching.

The scheduler is the piece that makes a million cheap lookups cost
zero simulations.  Every submitted point is resolved in this order:

1. **Cache hit** -- answered synchronously from the content-addressed
   :class:`~repro.sweep.cache.ResultCache`, never touching the pool.
2. **In-flight coalescing** -- a point whose key is already queued or
   running *subscribes* to that execution instead of starting another:
   N concurrent submissions of one identical workload run exactly one
   simulation, and all N observe the same bit-identical record.
3. **Dispatch** -- everything else enters a priority heap
   (``(priority, submit-seq)`` order, bounded by ``max_queue``) and is
   bridged onto a :class:`~concurrent.futures.ProcessPoolExecutor`
   running the sweep engine's own
   :func:`~repro.sweep.runner.point_worker` (same in-worker SIGALRM
   timeout, same result/failure records as a local campaign).

All state transitions are journaled through the
:class:`~repro.serve.jobs.JobStore`; results never are -- the cache is
the durable result store, which is what makes crash recovery free.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.api.execute import load_backends
from repro.api.session import Session
from repro.api.workloads import Workload
from repro.obs import spans as _obs
from repro.obs.metrics import METRICS
from repro.serve.jobs import Job, JobStore, new_job_id
from repro.sweep.cache import package_version
from repro.sweep.runner import _pool_worker_init, point_worker

__all__ = ["QueueFull", "Scheduler", "SERVE_COUNTERS"]

#: Counter families exposed by ``Scheduler.metrics()`` and mirrored
#: into :data:`repro.obs.metrics.METRICS` when observability is on.
SERVE_COUNTERS = (
    "requests", "cache_hits", "dedup_hits", "executions",
    "jobs_done", "jobs_error", "jobs_timeout", "jobs_cancelled",
)


class QueueFull(Exception):
    """The pending-task queue is at ``max_queue``; submission refused."""


@dataclass
class _Task:
    """One unique in-flight cache key and everyone waiting on it."""

    key: str
    workload: Workload
    timeout: float | None
    #: ``(job_id, point_index)`` pairs to fan the record out to.
    subscribers: list[tuple[str, int]] = field(default_factory=list)
    future: Future | None = None
    cancelled: bool = False


class Scheduler:
    """Bridge between job submissions and the simulation pool.

    Thread-safe: submissions arrive from the asyncio event loop,
    completions from executor callback threads, all serialized by one
    lock (every hold is short -- key hashing, dict/heap bookkeeping).
    """

    def __init__(self, session: Session, store: JobStore, *,
                 workers: int | None = None, max_queue: int = 1024):
        if session.cache is None:
            raise ValueError(
                "serve requires a result cache; construct the Session "
                "with cache=<dir>")
        self.session = session
        self.store = store
        self.max_queue = max_queue
        import os
        self.workers = workers or session.workers or os.cpu_count() or 1
        load_backends()  # forked workers inherit the simulator
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers, initializer=_pool_worker_init)
        self._lock = threading.RLock()
        self._tasks: dict[str, _Task] = {}
        self._heap: list[tuple[int, int, str]] = []
        self._seq = itertools.count()
        self._inflight = 0
        self._queued = 0
        self._shutdown = False
        self.counters = {name: 0 for name in SERVE_COUNTERS}

    # -- metrics ------------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        # Callers hold self._lock.
        self.counters[name] += value
        if _obs.ENABLED:
            METRICS.inc(f"serve.{name}", value)

    def metrics(self) -> dict:
        """JSON-ready ``serve.*`` snapshot (counters + live gauges)."""
        with self._lock:
            snap = {f"serve.{k}": v for k, v in self.counters.items()}
            snap["serve.queue_depth"] = self._queued
            snap["serve.inflight"] = self._inflight
            if _obs.ENABLED:
                METRICS.gauge("serve.queue_depth", self._queued)
                METRICS.gauge("serve.inflight", self._inflight)
            return snap

    # -- submission ---------------------------------------------------------

    def submit(self, workloads: list[Workload], *,
               priority: int = 10, timeout: float | None = None) -> Job:
        """Create, journal, and schedule one job; returns it queued
        (or already terminal, when every point was a cache hit)."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            self._count("requests")
            keys = [self.session.key(w) for w in workloads]
            fresh = {k for i, k in enumerate(keys)
                     if self.session.cache.get(k) is None
                     and k not in self._tasks}
            if self._queued + len(fresh) > self.max_queue:
                raise QueueFull(
                    f"queue full: {self._queued} queued + "
                    f"{len(fresh)} new > max {self.max_queue}")
            job = Job(id=new_job_id(), workloads=list(workloads),
                      priority=priority,
                      timeout=timeout if timeout is not None
                      else self.session.timeout)
            self.store.add(job)
            job.add_event("submitted", points=len(workloads))
            self._schedule(job, keys)
            return job

    def resume(self, jobs: list[Job]) -> int:
        """Re-enqueue journal-replayed jobs (see ``JobStore.replay``).

        Finished points resolve as cache hits on the spot; only the
        genuinely unfinished remainder re-enters the queue.  Returns
        the number of points re-enqueued.
        """
        requeued = 0
        with self._lock:
            for job in jobs:
                keys = [self.session.key(w) for w in job.workloads]
                requeued += self._schedule(job, keys)
            # Terminal jobs keep their journaled status; their result
            # *views* are rebuilt from the cache (results are never
            # journaled -- the store is the durable result store).
            for job in self.store.jobs.values():
                if not job.terminal:
                    continue
                for index, workload in enumerate(job.workloads):
                    if job.results[index] is not None:
                        continue
                    key = self.session.key(workload)
                    hit = self.session.cache.get(key)
                    if hit is not None:
                        job.results[index] = {
                            "status": "ok", "key": key, "cached": True,
                            "seconds": None, "result": hit.to_dict(),
                            "error": None}
        return requeued

    def _schedule(self, job: Job, keys: list[str]) -> int:
        # Callers hold self._lock; returns the newly queued task count.
        created = 0
        cache = self.session.cache
        for index, (workload, key) in enumerate(zip(job.workloads,
                                                    keys)):
            if job.results[index] is not None:
                continue
            hit = cache.get(key)
            if hit is not None:
                self._count("cache_hits")
                job.results[index] = {
                    "status": "ok", "key": key, "cached": True,
                    "seconds": None, "result": hit.to_dict(),
                    "error": None}
                job.add_event("point", index=index, status="ok",
                              cached=True)
                continue
            task = self._tasks.get(key)
            if task is not None:
                self._count("dedup_hits")
                task.subscribers.append((job.id, index))
                job.add_event("point_coalesced", index=index, key=key)
                continue
            task = _Task(key=key, workload=workload,
                         timeout=job.timeout,
                         subscribers=[(job.id, index)])
            self._tasks[key] = task
            heapq.heappush(self._heap,
                           (job.priority, next(self._seq), key))
            self._queued += 1
            created += 1
        if job.done_count == len(job.workloads):
            self._finalize(job)
        else:
            self._dispatch()
        return created

    # -- dispatch and completion --------------------------------------------

    def _dispatch(self) -> None:
        # Callers hold self._lock.
        if self._shutdown:  # a late _on_done must not resubmit
            return
        session = self.session
        while self._inflight < self.workers and self._heap:
            _, _, key = heapq.heappop(self._heap)
            task = self._tasks.get(key)
            if task is None or task.cancelled or task.future is not None:
                continue
            self._queued -= 1
            self._count("executions")
            task.future = self._executor.submit(
                point_worker, task.workload, session.cfg,
                session.max_cycles, task.timeout, session.engine,
                _obs.sink_dir())
            self._inflight += 1
            for job_id, _ in task.subscribers:
                job = self.store.get(job_id)
                if job is not None and job.status == "queued":
                    self.store.set_status(job, "running")
                    job.add_event("running")
            task.future.add_done_callback(
                lambda fut, key=key: self._on_done(key, fut))

    def _on_done(self, key: str, future: Future) -> None:
        # Runs on an executor callback thread.
        try:
            status, payload, seconds = future.result()
        except CancelledError:
            status, payload, seconds = "cancelled", "cancelled", None
        except Exception:
            status, payload, seconds = ("error", traceback.format_exc(),
                                        None)
        with self._lock:
            task = self._tasks.pop(key, None)
            self._inflight -= 1
            if task is None:  # cancelled away entirely
                self._dispatch()
                return
            record = self._record(task, status, payload, seconds)
            for job_id, index in task.subscribers:
                job = self.store.get(job_id)
                if job is None or job.results[index] is not None:
                    continue
                job.results[index] = record
                job.add_event("point", index=index,
                              status=record["status"], cached=False)
                if job.done_count == len(job.workloads):
                    self._finalize(job)
            self._dispatch()

    def _record(self, task: _Task, status: str, payload,
                seconds: float | None) -> dict:
        # Callers hold self._lock.
        cache = self.session.cache
        version = package_version()
        if status == "ok":
            cache.put(task.key, task.workload, payload,
                      seconds or 0.0, version)
            return {"status": "ok", "key": task.key, "cached": False,
                    "seconds": seconds, "result": payload.to_dict(),
                    "error": None}
        if status in ("error", "timeout"):
            cache.put_failure(task.key, task.workload, status,
                              str(payload), seconds or 0.0, version)
        return {"status": status, "key": task.key, "cached": False,
                "seconds": seconds, "result": None,
                "error": str(payload)}

    def _finalize(self, job: Job) -> None:
        # Callers hold self._lock.  Worst point status wins.
        statuses = {r["status"] for r in job.results if r is not None}
        for worst in ("cancelled", "error", "timeout"):
            if worst in statuses:
                final = worst
                break
        else:
            final = "done"
        self.store.set_status(job, final)
        self._count(f"jobs_{final}")
        job.add_event("finished", status=final)
        if _obs.ENABLED:
            seconds = (job.finished or time.time()) - job.created
            _obs.tracer().complete(
                "serve.job", cat="serve", start=job.created,
                seconds=seconds,
                args={"job": job.id, "status": final,
                      "points": len(job.workloads),
                      "cache_hits": sum(
                          1 for r in job.results
                          if r and r.get("cached"))})

    # -- cancellation and shutdown ------------------------------------------

    def cancel(self, job_id: str) -> Job | None:
        """Cooperatively cancel a job.  Pending points are dropped,
        running points shared with *other* jobs keep going (their
        results still land in the cache); a running point this job
        exclusively owns is cancelled if it has not started.  Returns
        the job, or ``None`` if unknown; terminal jobs are a no-op."""
        with self._lock:
            job = self.store.get(job_id)
            if job is None or job.terminal:
                return job
            for key, task in list(self._tasks.items()):
                mine = [(jid, idx) for jid, idx in task.subscribers
                        if jid == job_id]
                if not mine:
                    continue
                task.subscribers = [s for s in task.subscribers
                                    if s[0] != job_id]
                if not task.subscribers:
                    task.cancelled = True
                    if task.future is None:
                        del self._tasks[key]  # heap entry skips lazily
                        self._queued -= 1
                    elif task.future.cancel():
                        self._tasks.pop(key, None)
            for index, record in enumerate(job.results):
                if record is None:
                    job.results[index] = {
                        "status": "cancelled", "key": None,
                        "cached": False, "seconds": None,
                        "result": None, "error": "cancelled by client"}
                    job.add_event("point", index=index,
                                  status="cancelled", cached=False)
            self._finalize(job)
            self._dispatch()
            return job

    def shutdown(self, wait: bool = False) -> None:
        """Stop dispatching and journal every live job as interrupted
        (non-terminal: the next boot re-enqueues them)."""
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
            for job in self.store.jobs.values():
                if not job.terminal:
                    self.store.set_status(job, "interrupted")
        self._executor.shutdown(wait=wait, cancel_futures=True)
