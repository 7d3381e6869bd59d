"""Evaluation backends: run kernels, collect metrics, regenerate figures.

The public front door is :mod:`repro.api` (``Session``/``Workload``);
this package holds the execution backends behind it
(:func:`execute_build`, :func:`execute_stencil`,
:func:`~repro.eval.system_runner.execute_system_stencil`), the
reporting helpers, and the pre-1.5 deprecation shims
(:func:`run_build`, :func:`run_stencil_variant`).
"""

from repro._lazy import attach

__all__ = [
    "Result",
    "RunResult",
    "execute_build",
    "execute_stencil",
    "format_table",
    "geomean",
    "run_build",
    "run_stencil_variant",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.eval.report": ("format_table", "geomean"),
    "repro.eval.runner": ("Result", "RunResult", "execute_build",
                          "execute_stencil", "run_build",
                          "run_stencil_variant"),
})
