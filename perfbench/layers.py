"""The layer map: where spans are recorded and how per-layer metrics
are derived from them.

:func:`install` wraps the public callables of each layer at the place
the front doors look them up.  :func:`metrics` turns one traced round's
spans into the per-layer metrics named in ``BENCHMARK.json``; the
round-level figures a span cannot see (pool wait, serve queue wait,
HTTP time, CLI import time, serve counters) are passed in by the
workload that measured them.
"""

from __future__ import annotations

from tracer import Tracer, self_times

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "kernels.build": "kernels.build_s",
    "isa.assemble": "isa.assemble_s",
    "core.init": "core.init_s",
    "core.run": "core.run_s",
    "system.run": "system.run_s",
    "energy.report": "energy.report_s",
    "eval.check": "eval.check_s",
    "api.execute": "api.execute_self_s",
    "sweep.key": "sweep.key_s",
    "sweep.cache_get": "sweep.cache_get_s",
    "sweep.cache_put": "sweep.cache_put_s",
    "serve.scheduler_submit": "serve.scheduler_submit_s",
    "serve.journal": "serve.journal_s",
}

#: Per-layer metrics passed in by the workloads (0 where a workload
#: does not reach the layer).
ROUND_METRICS = ("sweep.cache_load_s", "sweep.pool_wait_s", "serve.http_s",
                 "serve.queue_wait_s", "cli.import_s", "serve.cache_hits",
                 "serve.dedup_hits", "serve.executions_per_cold_key",
                 "trace.overhead_s")

_CLUSTER_COUNTERS = ("int_instrs", "fp_dispatches", "fpu_compute_ops")


def _cluster_counts(cluster) -> dict:
    perf = cluster.perf
    stalls = perf.stall_breakdown()
    fast = cluster.fastpath.stats if cluster.fastpath is not None else {}
    counts = {name: perf.value(name) for name in _CLUSTER_COUNTERS}
    counts.update(
        cycles=cluster.cycle,
        stall_queue_empty=stalls.get("queue_empty", 0),
        stall_ssr_empty=stalls.get("ssr_empty", 0),
        tcdm_accesses=cluster.tcdm.total_accesses,
        tcdm_conflicts=cluster.tcdm.total_conflicts,
        ff_cycles=cluster.ff_stats["cycles"],
        fastpath_cycles=fast.get("fast_forwarded_cycles", 0),
        regions_seen=fast.get("regions_seen", 0),
        regions_eligible=fast.get("regions_eligible", 0))
    return counts


def _after_cluster_run(span, args, kwargs, out) -> None:
    span["args"].update(_cluster_counts(args[0]))


def _after_system_run(span, args, kwargs, out) -> None:
    system = args[0]
    total: dict = {}
    for cluster in system.clusters:
        for key, value in _cluster_counts(cluster).items():
            total[key] = total.get(key, 0) + value
    total.update(
        gmem_bytes=system.gmem.bytes_read + system.gmem.bytes_written,
        link_busy=system.interconnect.busy_cycles,
        link_contended=system.interconnect.contended_cycles)
    span["args"].update(total)


def _after_cache_get(span, args, kwargs, out) -> None:
    span["args"]["hit"] = out is not None


def _request_from_result(span, args, kwargs, out) -> None:
    job_id = getattr(out, "id", None)
    if job_id is None and isinstance(out, dict):
        job_id = out.get("id")
    if job_id is not None:
        span["request"] = job_id


def _label(args, kwargs) -> str:
    return args[0].label


def _job_id(args, kwargs) -> str:
    return args[1].id


def install(tr: Tracer) -> None:
    """Wrap every traced callable; undo with ``tr.uninstall()``."""
    import repro.api.execute as execute
    import repro.api.session as session
    import repro.core.cluster as cluster_mod
    import repro.eval.runner as eval_runner
    import repro.eval.system_runner as system_runner
    import repro.serve.scheduler as scheduler_mod
    import repro.sweep.runner as sweep_runner
    from repro.core.cluster import Cluster
    from repro.energy.model import EnergyModel
    from repro.kernels.build import KernelBuild
    from repro.kernels.partition import SystemBuild
    from repro.serve.client import ServeClient
    from repro.serve.jobs import JobStore
    from repro.serve.scheduler import Scheduler
    from repro.sweep.cache import ResultCache
    from repro.system import System

    # Pool workers receive point_worker pickled by reference, so the
    # serve scheduler must hold the very wrapper the sweep runner holds.
    tr.wrap(sweep_runner, "point_worker", "sweep.point", request=_label)
    tr.patch(scheduler_mod, "point_worker", sweep_runner.point_worker)
    tr.wrap(sweep_runner, "execute_point", "api.execute", request=_label)
    tr.wrap(session, "execute_workload", "api.execute", request=_label)
    tr.wrap(eval_runner, "build_stencil", "kernels.build")
    tr.wrap(execute, "build_vecop", "kernels.build")
    tr.wrap(system_runner, "build_partitioned_stencil", "kernels.build")
    tr.wrap(cluster_mod, "assemble", "isa.assemble")
    tr.wrap(Cluster, "__init__", "core.init")
    tr.wrap(KernelBuild, "load_into", "core.init")
    tr.wrap(SystemBuild, "load_into", "core.init")
    tr.wrap(Cluster, "run", "core.run", after=_after_cluster_run)
    tr.wrap(System, "run", "system.run", after=_after_system_run)
    tr.wrap(EnergyModel, "report", "energy.report")
    tr.wrap(EnergyModel, "system_report", "energy.report")
    tr.wrap(KernelBuild, "check", "eval.check")
    tr.wrap(SystemBuild, "check", "eval.check")
    tr.wrap(sweep_runner, "point_key", "sweep.key")
    tr.wrap(session, "point_key", "sweep.key")
    tr.wrap(ResultCache, "get", "sweep.cache_get", after=_after_cache_get)
    tr.wrap(ResultCache, "put", "sweep.cache_put")
    tr.wrap(ResultCache, "__init__", "sweep.cache_load")
    tr.wrap(Scheduler, "submit", "serve.scheduler_submit",
            after=_request_from_result)
    tr.wrap(JobStore, "add", "serve.journal", request=_job_id)
    tr.wrap(JobStore, "set_status", "serve.journal", request=_job_id)
    tr.wrap(ServeClient, "_request", "serve.request",
            after=_request_from_result)


def _sum(spans: list[dict], name: str, key: str) -> int:
    return sum(s["args"].get(key, 0) for s in spans if s["name"] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(spans: list[dict], round_metrics: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round (see ``BENCHMARK.json``)."""
    times = self_times(spans)
    out = {metric: times.get(name, {}).get("self_s", 0.0)
           for name, metric in SELF_TIME_METRICS.items()}
    runs = [s for s in spans if s["name"] in ("core.run", "system.run")]

    def total(key: str) -> int:
        return sum(s["args"].get(key, 0) for s in runs)

    cycles = total("cycles")
    cluster_run_cycles = _sum(spans, "core.run", "cycles")
    out["core.host_us_per_cycle"] = _ratio(1e6 * out["core.run_s"],
                                           cluster_run_cycles)
    out["core.sim_cycles"] = cycles
    out["core.int_instrs"] = total("int_instrs")
    out["core.fp_dispatches"] = total("fp_dispatches")
    out["core.fpu_util"] = _ratio(total("fpu_compute_ops"), cycles)
    out["core.stall.queue_empty"] = total("stall_queue_empty")
    out["core.stall.ssr_empty"] = total("stall_ssr_empty")
    out["core.ff_cycle_ratio"] = _ratio(total("ff_cycles"), cycles)
    out["core.fastpath_cycle_ratio"] = _ratio(total("fastpath_cycles"),
                                              cycles)
    out["core.fastpath_eligible_ratio"] = _ratio(
        total("regions_eligible"), total("regions_seen"))
    out["mem.tcdm_conflict_ratio"] = _ratio(total("tcdm_conflicts"),
                                            total("tcdm_accesses"))
    out["system.gmem_bytes"] = _sum(spans, "system.run", "gmem_bytes")
    out["system.interconnect_contended_ratio"] = _ratio(
        _sum(spans, "system.run", "link_contended"),
        _sum(spans, "system.run", "link_busy"))
    gets = [s for s in spans if s["name"] == "sweep.cache_get"]
    out["sweep.hit_ratio"] = _ratio(
        sum(1 for s in gets if s["args"].get("hit")), len(gets))
    for name in ROUND_METRICS:
        out[name] = float(round_metrics.get(name, 0.0))
    return out


#: Every per-layer metric, in report order, with its unit.
def units() -> dict[str, str]:
    table = {metric: "s" for metric in SELF_TIME_METRICS.values()}
    table.update({
        "core.host_us_per_cycle": "us/cycle",
        "core.sim_cycles": "cycles",
        "core.int_instrs": "count",
        "core.fp_dispatches": "count",
        "core.fpu_util": "ratio",
        "core.stall.queue_empty": "cycles",
        "core.stall.ssr_empty": "cycles",
        "core.ff_cycle_ratio": "ratio",
        "core.fastpath_cycle_ratio": "ratio",
        "core.fastpath_eligible_ratio": "ratio",
        "mem.tcdm_conflict_ratio": "ratio",
        "system.gmem_bytes": "bytes",
        "system.interconnect_contended_ratio": "ratio",
        "sweep.hit_ratio": "ratio",
        "sweep.cache_load_s": "s",
        "sweep.pool_wait_s": "s",
        "serve.http_s": "s",
        "serve.queue_wait_s": "s",
        "cli.import_s": "s",
        "serve.cache_hits": "count",
        "serve.dedup_hits": "count",
        "serve.executions_per_cold_key": "ratio",
        "trace.overhead_s": "s",
    })
    return table
