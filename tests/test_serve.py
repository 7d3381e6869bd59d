"""The serve layer: journal durability, cache-first scheduling,
in-flight coalescing, cancellation, and the HTTP wire protocol.

The expensive guarantees are proven end-to-end over real HTTP:
50 concurrent submissions of one identical workload run exactly one
simulation (the metrics prove it) and all 50 observe bit-identical
result JSON; a server restarted mid-campaign resumes from the job
journal with no lost and no duplicated results.
"""

import json
import socket
import threading
import time

import pytest

from repro.api import Session, workload
from repro.serve import Job, JobStore, ServeError
from repro.serve.scheduler import QueueFull, Scheduler
from repro.serve.testing import ServerThread
from repro.sweep import ResultCache

FAST = workload("vecop", "baseline", n=16)
FAST2 = workload("vecop", "chaining", n=16)
#: ~2.5s of simulation: long enough that concurrent submissions
#: reliably coalesce onto the in-flight execution.
SLOW = workload("box3d1r", "Chaining+", grid=(8, 16, 64))


# -- job journal --------------------------------------------------------------


def test_journal_replay_requeues_unfinished(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    queued = Job(id="job-aaa", workloads=[FAST, FAST2])
    running = Job(id="job-bbb", workloads=[FAST])
    finished = Job(id="job-ccc", workloads=[FAST])
    for job in (queued, running, finished):
        store.add(job)
    store.set_status(running, "running")
    store.set_status(finished, "done")

    replayed = JobStore(tmp_path / "jobs.jsonl")
    pending = replayed.replay()
    assert {j.id for j in pending} == {"job-aaa", "job-bbb"}
    assert all(j.status == "queued" for j in pending)
    assert replayed.get("job-ccc").status == "done"
    assert replayed.get("job-ccc").terminal
    # requeued jobs carry their workloads through the round trip
    assert replayed.get("job-aaa").workloads == [FAST, FAST2]


def test_journal_tolerates_torn_tail(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.add(Job(id="job-aaa", workloads=[FAST]))
    with open(tmp_path / "jobs.jsonl", "a") as sink:
        sink.write('{"op": "submit", "id": "job-to')  # killed mid-write
    replayed = JobStore(tmp_path / "jobs.jsonl")
    pending = replayed.replay()
    assert [j.id for j in pending] == ["job-aaa"]


# -- scheduler ----------------------------------------------------------------


def _scheduler(tmp_path, **kwargs):
    session = Session(cache=str(tmp_path / "store"), workers=1)
    store = JobStore(tmp_path / "store" / "jobs.jsonl")
    return Scheduler(session, store, **kwargs)


def test_cache_hit_answers_synchronously(tmp_path):
    sched = _scheduler(tmp_path, workers=1)
    try:
        first = sched.submit([FAST])
        _wait_terminal(sched, first.id)
        assert sched.counters["executions"] == 1

        again = sched.submit([FAST])
        # terminal at submit time: no queue, no pool, no new execution
        assert again.terminal and again.status == "done"
        assert again.results[0]["cached"] is True
        assert sched.counters["executions"] == 1
        assert sched.counters["cache_hits"] == 1
    finally:
        sched.shutdown(wait=True)


def test_queue_bound_rejects_atomically(tmp_path):
    sched = _scheduler(tmp_path, workers=1, max_queue=1)
    try:
        distinct = [workload("vecop", "baseline", n=n)
                    for n in (17, 18, 19)]
        with pytest.raises(QueueFull):
            sched.submit(distinct)
        # the rejection journaled nothing and queued nothing
        assert sched.store.jobs == {}
        assert sched.metrics()["serve.queue_depth"] == 0
    finally:
        sched.shutdown(wait=True)


def test_priority_orders_the_queue(tmp_path):
    sched = _scheduler(tmp_path, workers=1)
    try:
        sched.submit([SLOW])  # occupies the single worker
        low = sched.submit([workload("vecop", "baseline", n=17)],
                           priority=20)
        high = sched.submit([workload("vecop", "baseline", n=18)],
                            priority=5)
        with sched._lock:
            head = min(sched._heap)[2]
        assert head == sched.session.key(high.workloads[0])
        assert head != sched.session.key(low.workloads[0])
    finally:
        sched.shutdown(wait=True)


def _wait_terminal(sched, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = sched.store.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")


# -- HTTP API -----------------------------------------------------------------


def test_http_endpoints_roundtrip(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        health = client.healthz()
        assert health["ok"] is True and "version" in health

        job = client.submit([FAST, FAST2])
        view = client.wait(job["id"])
        assert view["status"] == "done"
        assert view["done"] == view["points"] == 2
        statuses = [r["status"] for r in view["results"]]
        assert statuses == ["ok", "ok"]
        # wire schema is Result.to_dict()
        assert view["results"][0]["result"]["schema"].startswith(
            "repro-result/")

        events = [e["event"] for e in client.events(job["id"])]
        assert events[0] == "submitted" and events[-1] == "finished"

        metrics = client.metrics()
        assert metrics["serve"]["serve.executions"] == 2
        assert "counters" in metrics["metrics"]


def test_http_rejects_garbage(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        with pytest.raises(ServeError) as err:
            client._request("POST", "/v1/jobs", {"nope": 1})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.job("job-doesnotexist")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404


def _raw_exchange(server, head: bytes) -> tuple[int, dict]:
    """Send ``head`` (request line + headers, no body) over a real
    socket; return the status and JSON body of the reply, which must
    arrive without the client sending a body and be followed by EOF."""
    with socket.create_connection(("127.0.0.1", server.server.port),
                                  timeout=10.0) as sock:
        sock.sendall(head)
        reply = b""
        while chunk := sock.recv(65536):   # EOF: the server closed
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(body)


@pytest.mark.parametrize("value", ["-5", "abc", "1.5", "+3", ""])
def test_http_rejects_bad_content_length(tmp_path, value):
    with ServerThread(tmp_path / "store", workers=1) as server:
        status, body = _raw_exchange(
            server, f"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {value}\r\n\r\n".encode())
        assert status == 400
        assert "Content-Length" in body["error"]
        assert server.client().healthz()["ok"] is True
        assert server.scheduler.store.jobs == {}


def test_http_refuses_oversized_body_unread(tmp_path):
    from repro.serve.http import _MAX_BODY

    with ServerThread(tmp_path / "store", workers=1) as server:
        # Only the headers are sent: a server that tried to read the
        # declared body would never answer.
        status, body = _raw_exchange(
            server, f"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {_MAX_BODY + 1}\r\n\r\n".encode())
        assert status == 413
        assert str(_MAX_BODY) in body["error"]
        assert server.client().healthz()["ok"] is True


@pytest.mark.parametrize("head", [
    # Over the line limit but within asyncio's 64 KiB stream buffer.
    b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 9000 + b"\r\n\r\n",
    # Over asyncio's own 64 KiB limit: readline raises ValueError.
    b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70000
    + b"\r\n\r\n",
    # An over-long request line.
    b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n",
    # Too many header lines.
    b"GET /v1/healthz HTTP/1.1\r\n" + b"X-A: 1\r\n" * 101 + b"\r\n",
], ids=["long-header", "huge-header", "long-request-line",
        "many-headers"])
def test_http_refuses_oversized_headers(tmp_path, head):
    from repro.serve.http import _MAX_HEADERS, _MAX_LINE

    with ServerThread(tmp_path / "store", workers=1) as server:
        status, body = _raw_exchange(server, head)
        assert status == 431
        assert str(_MAX_LINE) in body["error"] \
            or str(_MAX_HEADERS) in body["error"]
        assert server.client().healthz()["ok"] is True


def test_http_accepts_headers_at_the_limits(tmp_path):
    from repro.serve.http import _MAX_HEADERS, _MAX_LINE

    with ServerThread(tmp_path / "store", workers=1) as server:
        pad = b"X-Pad: " + b"a" * (_MAX_LINE - 9) + b"\r\n"
        assert len(pad) == _MAX_LINE
        status, body = _raw_exchange(
            server, b"GET /v1/healthz HTTP/1.1\r\n" + pad
            + b"X-A: 1\r\n" * (_MAX_HEADERS - 1) + b"\r\n")
        assert status == 200 and body["ok"] is True


def test_http_read_deadline_answers_408(tmp_path, monkeypatch):
    """A client that sends a request line and stops gets a 408 and a
    closed connection once the read deadline passes."""
    from repro.serve import http

    monkeypatch.setattr(http, "_READ_DEADLINE_S", 0.3)
    with ServerThread(tmp_path / "store", workers=1) as server:
        start = time.monotonic()
        status, body = _raw_exchange(
            server, b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n")
        assert status == 408
        assert "0.3" in body["error"]
        assert time.monotonic() - start < 5.0
        # A silent connection is dropped the same way.
        with socket.create_connection(
                ("127.0.0.1", server.server.port), timeout=10.0) as sock:
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert server.client().healthz()["ok"] is True


@pytest.mark.parametrize("bad, message", [
    ({"kernel": "nope", "variant": "baseline", "n": 16},
     "unknown kernel"),
    ({"kernel": "vecop", "variant": "Chaining+", "n": 16},
     "unknown variant"),
    ({"kernel": "box3d1r", "variant": "Base", "grid": [2, 3, 8],
      "overrides": [["engine", "warp"]]}, "engine must be"),
    ({"kernel": "vecop", "variant": "Baseline", "n": 16},
     "not in canonical form"),
    ({"kernel": "box3d1r", "variant": "Base", "grid": [2, 3, 8],
      "overrides": [["engine", "scalar"]]},
     "'auto', 'scalar-v2' or 'analytical'"),
])
def test_http_submit_rejects_invalid_workloads(tmp_path, bad, message):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        client.wait(client.submit([FAST])["id"])
        journal = server.store / "jobs.jsonl"
        before = journal.read_bytes()
        for payload in ({"workload": bad},
                        {"workloads": [FAST.canonical(), bad]}):
            with pytest.raises(ServeError) as err:
                client._request("POST", "/v1/jobs", payload)
            assert err.value.status == 400
            assert message in str(err.value)
        assert journal.read_bytes() == before
        assert len(server.scheduler.store.jobs) == 1
        assert client.metrics()["serve"]["serve.requests"] == 1


def test_http_cancel_pending_job(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        blocker = client.submit(SLOW)
        pending = client.submit(
            [workload("vecop", "baseline", n=n) for n in (21, 22)])
        cancelled = client.cancel(pending["id"])
        assert cancelled["status"] == "cancelled"
        view = client.job(pending["id"])
        assert view["status"] == "cancelled"
        assert all(r["status"] == "cancelled" for r in view["results"])
        with pytest.raises(ServeError) as err:  # cancel is terminal
            client.cancel(pending["id"])
        assert err.value.status == 409
        # the blocker is unaffected and still completes
        assert client.wait(blocker["id"])["status"] == "done"
        metrics = client.metrics()["serve"]
        assert metrics["serve.jobs_cancelled"] == 1
        assert metrics["serve.executions"] == 1  # cancelled never ran


# -- the tentpole guarantees --------------------------------------------------


def test_50_concurrent_identical_submissions_run_once(tmp_path):
    """The coalescing contract, end to end over HTTP: 50 concurrent
    submissions of one identical workload cost exactly 1 simulation
    and every caller observes bit-identical result JSON."""
    with ServerThread(tmp_path / "store", workers=2) as server:
        results: list[dict | Exception] = [None] * 50

        def submit_and_wait(slot: int) -> None:
            client = server.client(timeout=60.0)
            try:
                job = client.submit(SLOW)
                results[slot] = client.wait(job["id"], timeout=120.0)
            except Exception as exc:  # surfaced via the assert below
                results[slot] = exc

        threads = [threading.Thread(target=submit_and_wait, args=(i,))
                   for i in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180.0)

        failures = [r for r in results if isinstance(r, Exception)]
        assert not failures, failures[:3]
        assert all(view["status"] == "done" for view in results)

        payloads = {json.dumps(view["results"][0]["result"],
                               sort_keys=True) for view in results}
        assert len(payloads) == 1  # bit-identical for all 50

        metrics = server.client().metrics()["serve"]
        assert metrics["serve.executions"] == 1
        assert metrics["serve.requests"] == 50
        assert (metrics["serve.cache_hits"]
                + metrics["serve.dedup_hits"]) == 49


def test_restart_resumes_from_journal(tmp_path):
    """Durability contract: stop a server mid-campaign; a new server
    on the same store re-enqueues the job from the journal, finished
    points come back as cache hits, and the total simulation count
    across both lifetimes is exactly the number of unique points."""
    store = tmp_path / "store"
    points = [workload("box3d1r", "Base", grid=(4, 8, 32)),
              workload("box3d1r", "Base-", grid=(4, 8, 32)),
              workload("box3d1r", "Chaining", grid=(4, 8, 32)),
              workload("box3d1r", "Chaining+", grid=(4, 8, 32)),
              workload("box3d1r", "Base--", grid=(4, 8, 32)),
              workload("box3d1r", "Base", grid=(4, 16, 32))]

    first = ServerThread(store, workers=1).start()
    client = first.client()
    job = client.submit(points)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:  # let part of the job land
        if client.job(job["id"])["done"] >= 1:
            break
        time.sleep(0.05)
    first.stop()
    # drain the in-flight point so its record lands in exactly one
    # lifetime (the CI smoke test covers the kill -9 hard-stop path)
    deadline = time.monotonic() + 60.0
    while first.scheduler._inflight and time.monotonic() < deadline:
        time.sleep(0.05)
    executed_before = first.scheduler.counters["executions"]
    assert 1 <= executed_before < len(points)

    second = ServerThread(store, workers=1).start()
    try:
        assert second.requeued == len(points) - executed_before
        client = second.client()
        view = client.wait(job["id"], timeout=180.0)
        assert view["status"] == "done"
        assert all(r is not None and r["status"] == "ok"
                   for r in view["results"])
        # no lost results, no duplicated simulations
        executed_after = second.scheduler.counters["executions"]
        assert executed_before + executed_after == len(points)
        report = ResultCache(store).verify()
        assert report["ok"], report
        assert not report["duplicates"] and not report["conflicts"]
    finally:
        second.stop()
