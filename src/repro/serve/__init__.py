"""repro.serve: simulation-as-a-service on top of :class:`Session`.

The serve layer turns the package's one front door into a long-running
async job service: submit :class:`~repro.api.Workload` JSON over HTTP,
get back the canonical :meth:`~repro.api.Result.to_dict` wire schema.
Three properties make it cheap at scale:

* **cache-first** -- any point already in the content-addressed result
  store is answered synchronously, without touching the pool;
* **coalescing** -- N concurrent submissions of one identical workload
  run exactly one simulation;
* **durable** -- the job journal (``jobs.jsonl``) plus the result
  store survive restarts: unfinished jobs are re-enqueued on boot and
  their finished points resolve as cache hits.

Run one with ``python -m repro serve --store .serve-store``; see
``docs/serve.md`` for the API reference.
"""

from repro._lazy import attach

__all__ = [
    "Job",
    "JobStore",
    "QueueFull",
    "ReproServer",
    "Scheduler",
    "ServeClient",
    "ServeError",
    "TERMINAL_STATUSES",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.serve.client": ("ServeClient", "ServeError"),
    "repro.serve.http": ("ReproServer",),
    "repro.serve.jobs": ("TERMINAL_STATUSES", "Job", "JobStore"),
    "repro.serve.scheduler": ("QueueFull", "Scheduler"),
})
