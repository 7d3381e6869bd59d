"""The Snitch-like core model with the scalar-chaining extension.

The package implements a cycle-level, hazard-faithful model of a scalar
in-order RISC-V core in the style of Snitch (Zaruba et al., IEEE TC 2021):
a single-issue integer pipeline that dispatches floating-point work into a
decoupled FP subsystem ("pseudo dual-issue"), an in-order FPU pipeline with
per-class latencies, the FREP hardware loop, SSR streamers, and the paper's
contribution — *scalar chaining* — in :mod:`repro.core.chaining`.
"""

from repro._lazy import attach

__all__ = [
    "ChainController",
    "Cluster",
    "CoreConfig",
    "PerfCounters",
    "StallReason",
    "SystemConfig",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.core.chaining": ("ChainController",),
    "repro.core.cluster": ("Cluster",),
    "repro.core.config": ("CoreConfig", "SystemConfig"),
    "repro.core.perf": ("PerfCounters", "StallReason"),
})
