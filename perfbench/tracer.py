"""In-memory span recorder that wraps the program's public callables.

Spans are recorded around calls into each layer, from the benchmark's
own files: :func:`install` replaces callables at the place the front
doors look them up (a class attribute such as ``Cluster.run``, or a
module global such as ``repro.sweep.runner.point_worker``) and
:meth:`Tracer.uninstall` puts the originals back.  Nothing inside the
program changes, and ``repro.obs`` stays off.

Each span records its name, start, end, parent span and request id
(workload label or serve job id), plus counters read from the objects
at the same boundary.  Sweep and serve pool workers are forked from the
benchmark process, so they inherit the wrappers; a worker appends its
finished root spans to a spool file that the parent merges at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self, spool: Path):
        self.spool = Path(spool)
        self.spool.mkdir(parents=True, exist_ok=True)
        self.owner = os.getpid()
        self._reset()
        self._patched: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list[dict]:
        if os.getpid() != self.pid:
            # A forked pool worker: drop the parent's spans and open
            # stack, which belong to the parent.
            self._reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: str | None = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        span = {"name": name, "id": f"{self.pid}:{next(self._ids)}",
                "parent": parent["id"] if parent else None,
                "pid": self.pid, "tid": threading.get_ident(),
                "request": request, "args": {},
                "start": time.perf_counter_ns(), "end": None}
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        if span["end"] is None:
            span["end"] = time.perf_counter_ns()

    def close(self, span: dict) -> None:
        """Pop ``span`` and keep it; a worker's root span goes to disk."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)
        if not stack and self.pid != self.owner:
            self.flush()

    def flush(self) -> None:
        """Move this process's finished spans to its spool file."""
        with self._lock:
            done, self.spans = self.spans, []
        with open(self.spool / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in done))

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``, remembering the original for uninstall."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, request=None,
             after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``request(args, kwargs)`` names the request before the call;
        ``after(span, args, kwargs, result)`` reads counters after it
        (outside the timed interval) and may set the request id.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(
                name, request(args, kwargs) if request else None)
            try:
                out = original(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                span["args"]["raised"] = True
                tracer.close(span)
                raise
            tracer.end(span)
            if after is not None:
                after(span, args, kwargs, out)
            tracer.close(span)
            return out

        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def collect(self) -> list[dict]:
        """Every span of this process and of its pool workers."""
        spans = list(self.spans)
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
        return spans


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: total self time (s), total time (s) and calls.

    Self time is a span's duration minus the part of it that its
    children cover.
    """
    children: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    out: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    for span in spans:
        covered = 0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[span["name"]]
        duration = span["end"] - span["start"]
        entry["self_s"] += (duration - covered) / 1e9
        entry["total_s"] += duration / 1e9
        entry["calls"] += 1
    return dict(out)


def chrome_trace(spans: list[dict], process_names: dict[int, str]) -> dict:
    """Chrome trace-event document: one ``X`` event per span."""
    if not spans:
        return {"traceEvents": []}
    origin = min(s["start"] for s in spans)
    tids: dict[tuple[int, int], int] = {}
    events: list[dict] = []
    for pid in sorted({s["pid"] for s in spans}):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": process_names.get(
                           pid, f"pool worker {pid}")}})
    body = []
    for span in sorted(spans, key=lambda s: s["start"]):
        key = (span["pid"], span["tid"])
        if key not in tids:
            tids[key] = sum(1 for p, _ in tids if p == span["pid"])
            events.append({"ph": "M", "name": "thread_name",
                           "pid": span["pid"], "tid": tids[key],
                           "args": {"name": f"thread {tids[key]}"}})
        args = dict(span["args"])
        args.update(request=span["request"], parent=span["parent"],
                    id=span["id"])
        body.append({"ph": "X", "name": span["name"],
                     "cat": span["name"].split(".")[0],
                     "pid": span["pid"], "tid": tids[key],
                     "ts": (span["start"] - origin) / 1e3,
                     "dur": (span["end"] - span["start"]) / 1e3,
                     "args": args})
    return {"traceEvents": events + body, "displayTimeUnit": "ms"}
