"""repro.api: the unified workload/session API.

One declarative :class:`Workload` describes any experiment the package
can run -- kernel, variant, shape, config overrides, execution engine,
multi-cluster system axes -- and one :class:`Session` executes it,
picking the single-cluster or :mod:`repro.system` backend
automatically.  Every path emits one canonical :class:`Result` schema
(:meth:`Result.to_dict`), shared by CLI JSON, sweep CSV and the result
cache's JSONL records.

Quick start::

    from repro.api import Session, workload

    session = Session(cache=".sweep-cache")
    result = session.run(workload("j3d27pt", "Chaining+"))
    print(result.fpu_utilization, result.gflops_per_watt)

    campaign = session.map(
        [workload("box3d1r", v) for v in
         ("Base--", "Base-", "Base", "Chaining", "Chaining+")],
        parallel=True)
    for outcome in campaign.ok:
        print(outcome.point.label, outcome.result.to_dict()["gflops"])

See ``docs/api.md`` for the full reference and the migration table
from the pre-1.5 entry points.
"""

from repro._lazy import attach

__all__ = [
    "CancelToken",
    "DEFAULT_MAX_CYCLES",
    "FPU_DEPTH_KEY",
    "OVERRIDABLE_FIELDS",
    "RESULT_KEYS",
    "RESULT_METRICS",
    "RESULT_SCALARS",
    "RESULT_SCHEMA",
    "Result",
    "SYSTEM_FIELDS",
    "Session",
    "SystemReport",
    "VECOP_KERNEL",
    "Workload",
    "apply_overrides",
    "execute_workload",
    "make_workload",
    "normalize_variant",
    "parse_engine",
    "parse_kernel",
    "parse_stencil_variant",
    "parse_variant",
    "resolve_config",
    "resolve_variant",
    "workload",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.api.cancel": ("CancelToken",),
    "repro.api.execute": ("DEFAULT_MAX_CYCLES", "apply_overrides",
                          "execute_workload", "resolve_config"),
    "repro.api.parse": ("VECOP_KERNEL", "normalize_variant", "parse_engine",
                        "parse_kernel", "parse_stencil_variant",
                        "parse_variant", "resolve_variant"),
    "repro.api.result": ("RESULT_KEYS", "RESULT_METRICS", "RESULT_SCALARS",
                         "RESULT_SCHEMA", "Result", "SystemReport"),
    "repro.api.session": ("Session",),
    "repro.api.workloads": ("FPU_DEPTH_KEY", "OVERRIDABLE_FIELDS",
                            "SYSTEM_FIELDS", "Workload", "make_workload",
                            "workload"),
})
