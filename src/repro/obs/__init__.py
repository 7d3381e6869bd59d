"""Unified telemetry: spans, metrics, and Perfetto timeline export.

Three pillars (see ``docs/observability.md`` for the full guide):

* :mod:`repro.obs.spans` — an opt-in :class:`~repro.obs.spans.Tracer`
  recording wall-clock spans at the orchestration seams and
  simulated-cycle events inside the engines/system.
* :mod:`repro.obs.metrics` — a process-local counter/gauge/histogram
  registry, snapshotted into ``Result.meta["obs"]`` per run and
  aggregated into campaign summaries.
* :mod:`repro.obs.export` — Chrome trace-event JSON emission for
  Perfetto (``repro trace --perfetto``, ``repro sweep --obs-out``).

Everything is off by default; instrumented call sites pay one module
attribute read until :func:`enable` is called.
"""

from repro._lazy import attach

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "ProgressMeter",
    "Tracer",
    "campaign_obs",
    "chrome_trace",
    "cluster_run_obs",
    "disable",
    "enable",
    "export_dir",
    "is_enabled",
    "load_segments",
    "recorder_events",
    "sim_context",
    "sim_label",
    "sink_dir",
    "system_run_obs",
    "tracer",
    "write_trace",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.obs.export": ("chrome_trace", "export_dir", "load_segments",
                         "recorder_events", "write_trace"),
    "repro.obs.metrics": ("METRICS", "MetricsRegistry", "campaign_obs",
                          "cluster_run_obs", "system_run_obs"),
    "repro.obs.progress": ("ProgressMeter",),
    "repro.obs.spans": ("Tracer", "disable", "enable", "is_enabled",
                        "sim_context", "sim_label", "sink_dir", "tracer"),
})
