"""The three benchmark workloads, each driven through its front doors.

A run is a series of rounds.  Every round sets up afresh (so set-up is
measured several times), runs the cold timed phase, then the warm
phase, and checks every output.  Host-time figures are medians over the
round samples; simulated statistics are exact and double as correctness
pins.

* ``paper-fig3`` -- the paper's Fig. 3 through ``fig3_data`` (one call
  per point, serial, in-process, uncached), ``claims_from_results``,
  then ``repro sweep --preset fig3`` on a store holding the points.
* ``campaign-scaling`` -- the ``scaling`` preset plus FREP vecop points
  through ``Session.map`` with 2 workers into a store pre-filled with
  analytical records, then ``repro sweep --preset scaling`` warm.
* ``serve-mixed`` -- ``ServerThread`` with 1 pool worker; one closed-
  loop client sends cache hits and cold jobs, each cold job followed
  straight away by an identical duplicate.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import mix
from calibrate import Calibrator
from quantiles import Ops

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_FIG3 = Path(__file__).resolve().parent / "golden_fig3.json"
#: Poll interval of ServeClient.wait; the client default (0.1 s) would
#: round a ~25 ms cold job up to whole poll steps.
SERVE_POLL_S = 0.002
#: A serve job or CLI call that takes longer has failed (they take
#: milliseconds to a second).
SERVE_TIMEOUT_S = 20.0
CLI_TIMEOUT_S = 60
#: Fresh-interpreter imports per set-up; their median is its import
#: share, which alone varies by a third from one import to the next.
IMPORT_SAMPLES = 3


def _env() -> dict:
    import os
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def fresh_import_seconds(module: str) -> float:
    """Host seconds to import ``module`` in a fresh interpreter,
    timed inside it (interpreter start-up excluded)."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=_env(), capture_output=True, text=True,
                         timeout=CLI_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_cli(args: list[str], spool: Path | None = None,
            ) -> tuple[float, subprocess.CompletedProcess]:
    """Run ``python -m repro <args>``; seconds from the user's side.
    With ``spool``, run it under :mod:`cli_traced` instead."""
    launcher = ["-m", "repro"] if spool is None else \
        [str(Path(__file__).resolve().parent / "cli_traced.py"), str(spool)]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *launcher, *args],
                          cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - start, proc


def sim_cycles(result) -> int:
    """Simulated cluster-cycles: per-cluster cycles summed for systems."""
    if result.system is not None:
        return sum(result.system.per_cluster_cycles)
    return result.cycles


@contextmanager
def tcdm_reports():
    """Collect ``cluster.tcdm.stats()`` of every simulated point, read
    where the energy model receives the cluster (TCDM statistics are
    not part of ``Result``).  No timing; one call per point."""
    from repro.energy.model import EnergyModel

    stats: list[dict] = []
    report = EnergyModel.report

    def capture(model, cluster):
        stats.append(cluster.tcdm.stats())
        return report(model, cluster)

    EnergyModel.report = capture
    try:
        yield stats
    finally:
        EnergyModel.report = report


def median_of_medians(samples: dict) -> float:
    """Median over points of each point's median over the rounds: a
    robust per-point latency when every round runs the same points."""
    return statistics.median(statistics.median(s) for s in samples.values())


def golden_stats(result, tcdm: dict) -> dict:
    """The per-point statistics ``golden_fig3.json`` pins."""
    return {"cycles": result.cycles, "region_cycles": result.region_cycles,
            "fpu_utilization": result.fpu_utilization,
            "stalls": result.stalls, "tcdm": tcdm}


def reap_children() -> None:
    """Wait for every pool worker this process started; one that does
    not exit promptly is terminated."""
    for child in multiprocessing.active_children():
        child.join(timeout=5)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


class Workload:
    name = ""
    #: Module a user of this workload imports first (set-up cost).
    front_door = "repro"
    #: Rounds needed for the sample counts the report promises.
    min_rounds = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.setup_s: list[float] = []
        self.wall_s: list[float] = []
        self.cycles_per_s: list[float] = []
        self.cold = Ops("cold")
        self.warm = Ops("warm")
        self.attempted = 0
        self.failures: list[str] = []
        #: Per-layer figures a span cannot see, of the latest round.
        self.round_layers: dict[str, float] = {}
        #: Host-speed calibration bursts, run between pieces of work.
        self.cal = Calibrator()
        #: Spool directory of the current traced round (None: untraced).
        self.spool: Path | None = None

    # -- accounting -------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a mismatch is a failure."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def add_layer(self, name: str, value: float) -> None:
        self.round_layers[name] = self.round_layers.get(name, 0.0) + value

    @property
    def failed(self) -> int:
        return len(self.failures)

    def timed(self) -> dict[str, float]:
        """wall_s, sim_cycles_per_s and cold_p50_ms of the run: medians
        over its rounds and cold operations."""
        return {"wall_s": statistics.median(self.wall_s),
                "sim_cycles_per_s": statistics.median(self.cycles_per_s),
                "cold_p50_ms": self.cold.pct_ms(50)}

    # -- the round --------------------------------------------------------

    def round(self, index: int) -> dict[str, tuple[int, int]]:
        """One round: set-up, cold phase, warm phase, each followed by
        its (untimed) checks.  Returns the ``(start_ns, end_ns)`` window
        of each timed phase; the round's span-invisible per-layer
        figures land in :attr:`round_layers`."""
        self.round_layers = {}
        store = self.work / f"round{index}"
        shutil.rmtree(store, ignore_errors=True)
        store.mkdir(parents=True)
        windows = {}
        state: dict = {"store": store}
        try:
            self.cal.burst()
            t0 = time.perf_counter_ns()
            import_s = statistics.median(
                fresh_import_seconds(self.front_door)
                for _ in range(IMPORT_SAMPLES))
            ta = time.perf_counter_ns()
            self.setup(index, state)
            t1 = time.perf_counter_ns()
            self.setup_s.append(import_s + (t1 - ta) / 1e9)
            windows["setup"] = (t0, t1)
            self.cold_phase(index, state)
            windows["cold"] = (t1, time.perf_counter_ns())
            self.check_cold(index, state)
            t2 = time.perf_counter_ns()
            self.warm_phase(index, state)
            windows["warm"] = (t2, time.perf_counter_ns())
            self.check_warm(index, state)
        finally:
            self.teardown(state)
            reap_children()
            shutil.rmtree(store, ignore_errors=True)
        return windows

    def setup(self, index: int, state: dict) -> None:
        pass

    def cold_phase(self, index: int, state: dict) -> None:
        raise NotImplementedError

    def check_cold(self, index: int, state: dict) -> None:
        pass

    def warm_phase(self, index: int, state: dict) -> None:
        pass

    def check_warm(self, index: int, state: dict) -> None:
        pass

    def teardown(self, state: dict) -> None:
        pass

    # -- shared warm CLI phase --------------------------------------------

    def warm_cli(self, preset: str, state: dict, calls: int) -> None:
        """``repro sweep --preset <preset>`` on the warm store, timed
        from the user's side, ``calls`` times; each writes its JSON."""
        state["warm_runs"] = []
        for call in range(calls):
            self.cal.burst()
            out = state["store"] / f"warm{call}.json"
            seconds, proc = run_cli(
                ["sweep", "--preset", preset, "--cache-dir",
                 str(state["store"]), "--quiet", "--json", str(out)],
                spool=self.spool)
            state["warm_runs"].append((proc, out))
            if proc.returncode == 0:
                self.warm.ok(seconds)
            else:
                self.warm.fail()

    def check_warm_cli(self, preset: str, state: dict) -> None:
        """Every warm call exits 0 with all points cache hits, and its
        records equal the cold results."""
        cold = state["cold"]
        for proc, out in state["warm_runs"]:
            if not self.check(proc.returncode == 0,
                              f"repro sweep --preset {preset} exited "
                              f"{proc.returncode}: {proc.stderr[-500:]}"):
                continue
            doc = json.loads(out.read_text())
            self.check(doc["cached_count"] == doc["points"] == len(cold),
                       f"warm {preset}: {doc['cached_count']} of "
                       f"{doc['points']} points were cache hits")
            for outcome in doc["outcomes"]:
                label = outcome["label"]
                self.check(label in cold and
                           outcome["result"] == cold[label].to_dict(),
                           f"warm {preset}: record of {label} differs "
                           f"from the cold result")


class PaperFig3(Workload):
    name = "paper-fig3"
    front_door = "repro.eval.figures"
    min_rounds = 3
    warm_calls = 3

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.golden = json.loads(GOLDEN_FIG3.read_text())
        self.claims = None
        self.point_s: dict[tuple[str, str], list[float]] = {}
        self.point_cycles: dict[tuple[str, str], int] = {}

    def timed(self):
        """One cold Fig. 3 pass, estimated robustly: each point's median
        host time over the run's rounds, summed (wall_s) and its median
        over the points (cold_p50_ms)."""
        wall = sum(statistics.median(s) for s in self.point_s.values())
        return {"wall_s": wall,
                "sim_cycles_per_s": sum(self.point_cycles.values()) / wall,
                "cold_p50_ms": 1e3 * median_of_medians(self.point_s)}

    def cold_phase(self, index, state):
        from repro.eval.figures import claims_from_results, fig3_data
        from repro.kernels.variants import Variant

        order = mix.fig3_order(self.seed, index)
        results = {}
        with tcdm_reports() as tcdm:
            start = time.perf_counter()
            for kernel, label in order:
                self.cal.burst()
                t = time.perf_counter()
                results.update(fig3_data(
                    kernels=(kernel,),
                    variants=(Variant.from_label(label),)))
                seconds = time.perf_counter() - t
                self.cold.ok(seconds)
                self.point_s.setdefault((kernel, label), []).append(seconds)
                self.point_cycles[kernel, label] = sim_cycles(
                    results[kernel, label])
            self.claims = claims_from_results(results)
            wall = time.perf_counter() - start
        self.wall_s.append(wall)
        state.update(order=order, results=results, tcdm=tcdm)

    def check_cold(self, index, state):
        from repro.api.session import Session
        from repro.api.workloads import make_workload
        from repro.sweep.cache import ResultCache, package_version

        order, results, tcdm = state["order"], state["results"], \
            state["tcdm"]
        self.check(len(tcdm) == len(order),
                   f"captured {len(tcdm)} TCDM reports for "
                   f"{len(order)} points")
        for (kernel, label), stats in zip(order, tcdm):
            res = results[kernel, label]
            key = f"{kernel}/{label}"
            self.check(res.correct, f"{key}: output mismatch")
            self.check(golden_stats(res, stats) == self.golden[key],
                       f"{key}: statistics differ from the golden")
        # Store the cold results where `repro sweep --preset fig3`
        # looks them up, for the warm phase.
        cache = ResultCache(state["store"])
        session = Session()
        state["cold"] = {}
        for (kernel, label), result in results.items():
            work = make_workload(kernel, label)
            cache.put(session.key(work), work, result, 0.0,
                      package_version())
            state["cold"][work.label] = result

    def warm_phase(self, index, state):
        self.warm_cli("fig3", state, self.warm_calls)

    def check_warm(self, index, state):
        self.check_warm_cli("fig3", state)


class CampaignScaling(Workload):
    name = "campaign-scaling"
    front_door = "repro.api"
    min_rounds = 3
    warm_calls = 2
    workers = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.point_s: dict = {}

    def timed(self):
        """cold_p50_ms is taken over the preset's points, which are the
        same every round: the seed-drawn vecops are 10-50x cheaper, and
        with them the median would sit on the gap between the two
        groups."""
        return {**super().timed(),
                "cold_p50_ms": 1e3 * median_of_medians(self.point_s)}

    def setup(self, index, state):
        from repro.api.session import Session

        fill = mix.analytical_fill(self.seed, index)
        filled = Session(cache=str(state["store"])).map(
            fill, fidelity="analytical", parallel=False)
        session = Session(cache=str(state["store"]),
                          workers=self.workers)
        state.update(fill=fill, filled=filled, session=session,
                     loaded=len(session.cache))

    def cold_phase(self, index, state):
        from repro.sweep.presets import preset_points

        _, preset = preset_points("scaling")
        points = preset + mix.scaling_vecops(self.seed, index)
        self.cal.burst()
        start = time.perf_counter()
        campaign = state["session"].map(points)
        wall = time.perf_counter() - start
        self.wall_s.append(wall)
        cycles = sum(sim_cycles(o.result) for o in campaign.outcomes
                     if o.ok)
        self.cycles_per_s.append(cycles / wall)
        busy = sum(o.seconds for o in campaign.outcomes)
        self.add_layer("sweep.pool_wait_s", wall - busy / self.workers)
        state.update(preset=preset, campaign=campaign)

    def check_cold(self, index, state):
        fill, filled = state["fill"], state["filled"]
        self.check(filled.ok_count == len(fill),
                   f"analytical fill: {len(filled.failed)} of "
                   f"{len(fill)} failed")
        self.check(state["loaded"] == len(fill),
                   f"reopened store holds {state['loaded']} records, "
                   f"expected {len(fill)}")
        state["cold"] = {}
        for outcome in state["campaign"].outcomes:
            label = outcome.point.label
            ok = outcome.ok and not outcome.cached and \
                outcome.result.correct
            if self.check(ok, f"{label}: {outcome.status} "
                              f"cached={outcome.cached} "
                              f"{outcome.error or ''}"):
                self.cold.ok(outcome.seconds)
                if outcome.point in state["preset"]:
                    state["cold"][label] = outcome.result
                    self.point_s.setdefault(outcome.point, []).append(
                        outcome.seconds)
            else:
                self.cold.fail()

    def warm_phase(self, index, state):
        self.warm_cli("scaling", state, self.warm_calls)

    def check_warm(self, index, state):
        self.check_warm_cli("scaling", state)


class ServeMixed(Workload):
    name = "serve-mixed"
    front_door = "repro.serve"
    min_rounds = 3
    #: Workload that starts the pool worker during set-up; its size is
    #: outside both the hit-set and the cold vecop ranges.
    WARMUP = ("vecop", "baseline", 4, "frep")
    compared_per_round = 4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.hit = self.warm
        self.dedup = Ops("dedup")

    def setup(self, index, state):
        from repro.api.session import Session
        from repro.api.workloads import make_workload
        from repro.serve.testing import ServerThread

        plan = mix.serve_round(self.seed, index)
        filled = Session(cache=str(state["store"])).map(
            list(plan.hit_set), parallel=False)
        state.update(plan=plan, filled=filled)
        state["server"] = ServerThread(state["store"], workers=1).start()
        client = state["client"] = state["server"].client(
            timeout=SERVE_TIMEOUT_S)
        kernel, variant, n, loop_mode = self.WARMUP
        warmup = make_workload(kernel, variant, n=n, loop_mode=loop_mode)
        state["warmup"] = self._terminal(client, client.submit(warmup))

    @staticmethod
    def _terminal(client, view):
        from repro.serve.jobs import TERMINAL_STATUSES
        if view["status"] in TERMINAL_STATUSES:
            return view
        return client.wait(view["id"], timeout=SERVE_TIMEOUT_S,
                           poll=SERVE_POLL_S)

    def cold_phase(self, index, state):
        from repro.serve.client import ServeError

        refused = (ServeError, TimeoutError, OSError)
        client = state["client"]
        hits: list[tuple] = []
        colds: list[tuple] = []
        errors: list[str] = []
        cycles = 0
        queue_wait = 0.0
        start = time.perf_counter()
        paused = 0.0
        for step, (kind, work) in enumerate(state["plan"].ops):
            if step % 20 == 0:
                t0 = time.perf_counter()
                self.cal.burst()
                paused += time.perf_counter() - t0
            t0 = time.perf_counter()
            if kind == "hit":
                try:
                    view = self._terminal(client, client.submit(work))
                except refused as exc:
                    errors.append(f"hit {work.label}: {exc}")
                    self.hit.fail()
                    continue
                self.hit.ok(time.perf_counter() - t0)
                hits.append((work, view))
                continue
            try:
                first = client.submit(work)
                t1 = time.perf_counter()
                dup = client.submit(work)
                view = self._terminal(client, first)
                t2 = time.perf_counter()
                dup_view = self._terminal(client, dup)
                t3 = time.perf_counter()
            except refused as exc:
                errors.append(f"cold {work.label}: {exc}")
                self.cold.fail()
                self.dedup.fail()
                continue
            self.cold.ok(t2 - t0)
            self.dedup.ok(t3 - t1)
            colds.append((work, view, dup_view))
            point = view["results"][0]
            if point["status"] == "ok":
                cycles += point["result"]["cycles"]
                queue_wait += (t2 - t0) - point["seconds"]
        wall = time.perf_counter() - start - paused
        self.wall_s.append(wall)
        self.cycles_per_s.append(cycles / wall)
        self.add_layer("serve.queue_wait_s", queue_wait)
        state.update(hits=hits, colds=colds, errors=errors)

    def check_cold(self, index, state):
        """Every view terminal and correct, dedup and hit accounting
        exact, and a sample of records equal to in-process
        ``Session.run``."""
        from repro.api.session import Session

        plan = state["plan"]
        self.check(state["filled"].ok_count == len(plan.hit_set),
                   "hit-set fill failed")
        self.check(state["warmup"]["status"] == "done",
                   "pool warm-up job failed")
        for message in state["errors"]:
            self.check(False, message)
        for work, view in state["hits"]:
            point = view["results"][0]
            self.check(view["status"] == "done" and point["cached"]
                       and point["result"]["correct"],
                       f"hit {work.label}: {view['status']}")
        for work, view, dup in state["colds"]:
            point = view["results"][0]
            ok = view["status"] == dup["status"] == "done" and \
                point["result"] == dup["results"][0]["result"] and \
                point["result"]["correct"] and not point["cached"]
            self.check(ok, f"cold {work.label}: {view['status']}/"
                           f"{dup['status']}")
        counters = state["client"].metrics()["serve"]
        cold_keys = len(plan.cold)
        executions = counters["serve.executions"] - 1   # minus warm-up
        # A duplicate coalesces onto its original (a dedup hit) unless
        # the original already finished, which makes it a cache hit.
        late = counters["serve.cache_hits"] - len(state["hits"])
        self.check(late >= 0 and
                   counters["serve.dedup_hits"] + late == cold_keys,
                   f"{cold_keys} duplicates gave "
                   f"{counters['serve.dedup_hits']} dedup hits and "
                   f"{late} extra cache hits")
        self.check(executions == cold_keys,
                   f"{executions} executions for {cold_keys} cold keys")
        self.add_layer("serve.cache_hits", counters["serve.cache_hits"])
        self.add_layer("serve.dedup_hits", counters["serve.dedup_hits"])
        self.add_layer("serve.executions_per_cold_key",
                       executions / cold_keys)
        session = Session()
        sample = [(w, v) for w, v, _ in
                  state["colds"][:self.compared_per_round]]
        sample += state["hits"][:self.compared_per_round]
        for work, view in sample:
            self.check(view["results"][0]["result"]
                       == session.run(work).to_dict(),
                       f"serve record of {work.label} differs from "
                       f"Session.run")

    def teardown(self, state):
        if "server" in state:
            state["server"].stop()


WORKLOADS = {cls.name: cls for cls in (PaperFig3, CampaignScaling,
                                       ServeMixed)}
