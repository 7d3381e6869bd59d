"""Evaluation backends: run kernels, collect metrics, regenerate figures.

The public front door is :mod:`repro.api` (``Session``/``Workload``);
this package holds the execution backends behind it
(:func:`execute_build`, :func:`execute_stencil`,
:func:`~repro.eval.system_runner.execute_system_stencil`) and the
reporting helpers.
"""

from repro._lazy import attach

__all__ = [
    "Result",
    "RunResult",
    "execute_build",
    "execute_stencil",
    "format_table",
    "geomean",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.eval.report": ("format_table", "geomean"),
    "repro.eval.runner": ("Result", "RunResult", "execute_build",
                          "execute_stencil"),
})
