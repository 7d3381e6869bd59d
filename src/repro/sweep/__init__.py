"""Experiment-campaign engine: declarative sweeps, parallel execution,
content-addressed result caching, and aggregation.

Quick start::

    from repro.api import Session
    from repro.sweep import SweepSpec

    spec = SweepSpec(kernels=("box3d1r",), grids=((2, 4, 16), (4, 6, 32)),
                     overrides=({"tcdm_banks": 16}, {"tcdm_banks": 32}))
    campaign = Session(cache=".sweep-cache").map(spec.points(),
                                                 parallel=True)
    for outcome in campaign.ok:
        print(outcome.point.label, outcome.result.fpu_utilization)

(The lower-level :class:`SweepRunner` remains the engine underneath
``Session.map``.)  See ``docs/sweeps.md`` for the spec format and cache
layout.  The expansion unit ``Point`` is deprecated: it is the same
class as :class:`repro.api.Workload` (identical fields, canonical form
and cache keys).
"""

from repro._lazy import attach

__all__ = [
    "AUDIT_AXES",
    "AUDIT_SCHEMA",
    "BackfillPlan",
    "Campaign",
    "CampaignAudit",
    "GAP_CLASSES",
    "Outcome",
    "PRESETS",
    "PointAudit",
    "RESULT_METRICS",
    "ResultCache",
    "SweepRunner",
    "SweepSpec",
    "VECOP_KERNEL",
    "Workload",
    "apply_overrides",
    "audit_campaign",
    "best_points",
    "by_kernel_variant",
    "execute_point",
    "group_by",
    "make_point",
    "make_workload",
    "normalize_variant",
    "point_key",
    "preset_points",
    "result_from_record",
    "result_to_record",
    "speedup_vs_baseline",
    "summary_rows",
]

_export, __dir__ = attach(__name__, {
    "repro.api.workloads": ("Workload", "make_workload"),
    "repro.sweep.aggregate": ("RESULT_METRICS", "best_points",
                              "by_kernel_variant", "group_by",
                              "speedup_vs_baseline", "summary_rows"),
    "repro.sweep.audit": ("AUDIT_AXES", "AUDIT_SCHEMA", "GAP_CLASSES",
                          "BackfillPlan", "CampaignAudit", "PointAudit",
                          "audit_campaign"),
    "repro.sweep.cache": ("ResultCache", "point_key", "result_from_record",
                          "result_to_record"),
    "repro.sweep.presets": ("PRESETS", "preset_points"),
    "repro.sweep.runner": ("Campaign", "Outcome", "SweepRunner",
                           "apply_overrides", "execute_point"),
    "repro.sweep.spec": ("SweepSpec", "VECOP_KERNEL", "make_point",
                         "normalize_variant"),
})


def __getattr__(name: str):
    # Not in __all__ on purpose: star imports stay warning-free.
    if name == "Point":
        from repro.api.workloads import deprecated_point_alias

        return deprecated_point_alias(f"{__name__}.Point")
    return _export(name)
