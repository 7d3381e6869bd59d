"""Issue-slot tracing and the textual reproductions of Figs. 1c and 2."""

from repro._lazy import attach

__all__ = ["TraceRecorder", "render_dataflow", "render_issue_trace"]

__getattr__, __dir__ = attach(__name__, {
    "repro.trace.events": ("TraceRecorder",),
    "repro.trace.render": ("render_dataflow", "render_issue_trace"),
})
