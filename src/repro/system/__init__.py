"""Multi-cluster scale-out: clusters + global memory + interconnect.

The paper's evaluation stops at one Snitch cluster; this package scales
it out.  A :class:`System` instantiates N :class:`~repro.core.cluster
.Cluster`\\ s, a shared banked :class:`GlobalMemory` (HBM-like: aggregate
bandwidth plus a per-transfer access latency), and an
:class:`Interconnect` that arbitrates concurrent inter-cluster DMA
transfers.  Compute cores never touch global memory directly -- all
traffic flows through each cluster's DMA engine, with byte addresses at
or above :data:`GLOBAL_BASE` selecting the global memory -- and clusters
synchronize through the system barrier CSR (``0x7C7``).

See ``docs/system.md`` for the architecture, the halo-exchange protocol
built on top of it (:mod:`repro.kernels.partition`), and the
scaling-sweep recipe.
"""

from repro._lazy import attach

__all__ = [
    "GLOBAL_BASE",
    "ClusterDma",
    "GlobalMemory",
    "Interconnect",
    "System",
    "SystemConfig",
    "SystemDeadlock",
    "SystemTimeout",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.core.config": ("SystemConfig",),
    "repro.system.system": ("GLOBAL_BASE", "ClusterDma", "GlobalMemory",
                            "Interconnect", "System", "SystemDeadlock",
                            "SystemTimeout"),
})
