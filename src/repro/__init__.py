"""repro: scalar chaining for RISC-V in-order cores.

A cycle-level, hazard-faithful reproduction of

    "Late Breaking Results: A RISC-V ISA Extension for Chaining in Scalar
    Processors" (Colagrande, Jonnalagadda, Benini -- DATE 2025).

Quick start (the unified API: one Workload in, one Result out)::

    from repro import Session, workload

    session = Session(cache=".sweep-cache")
    result = session.run(workload("j3d27pt", "Chaining+"))
    print(result.fpu_utilization, result.power_mw, result.gflops_per_watt)

    # many workloads, process-parallel, content-addressed caching:
    campaign = session.map(
        [workload("box3d1r", "Chaining+", num_clusters=n, iters=2,
                  grid=(4, 4, 8)) for n in (1, 2, 4)],
        parallel=True)
    for outcome in campaign.ok:
        print(outcome.point.label, outcome.result.to_dict()["gflops"])

Package map:

* :mod:`repro.api`     -- the unified Workload/Session/Result front door
* :mod:`repro.isa`     -- RV32IM + F/D + Xssr/Xfrep/Xchain, assembler
* :mod:`repro.core`    -- the Snitch-like core and the chaining extension
* :mod:`repro.ssr`     -- stream semantic registers (affine + indirect)
* :mod:`repro.mem`     -- banked TCDM model
* :mod:`repro.kernels` -- Fig. 1 vecop and SARIS-style stencil generators
* :mod:`repro.energy`  -- event-based energy/power and area models
* :mod:`repro.eval`    -- execution backends and figure regeneration
* :mod:`repro.sweep`   -- experiment campaigns: declarative sweeps,
  parallel execution, content-addressed result caching, aggregation
* :mod:`repro.system`  -- multi-cluster scale-out: shared global
  memory, inter-cluster DMA arbitration, system barrier, and the
  halo-exchange domain decomposition in :mod:`repro.kernels.partition`
* :mod:`repro.trace`   -- issue traces (Fig. 1c) and dataflow (Fig. 2)
* :mod:`repro.obs`     -- opt-in telemetry: spans, metrics, and
  Perfetto timeline export (``docs/observability.md``)
"""

from repro._lazy import attach

__version__ = "1.10.0"

__all__ = [
    "AreaModel",
    "Campaign",
    "ChainController",
    "Cluster",
    "CoreConfig",
    "EnergyModel",
    "EnergyParams",
    "GLOBAL_BASE",
    "Grid3d",
    "KernelBuild",
    "Result",
    "ResultCache",
    "RunResult",
    "Session",
    "StencilSpec",
    "SweepRunner",
    "SweepSpec",
    "System",
    "SystemConfig",
    "SystemReport",
    "TraceRecorder",
    "Variant",
    "VecopVariant",
    "Workload",
    "__version__",
    "assemble",
    "box3d1r",
    "build_partitioned_stencil",
    "build_stencil",
    "build_vecop",
    "decode",
    "disassemble",
    "encode",
    "geomean",
    "j3d27pt",
    "make_point",
    "make_workload",
    "obs",
    "render_dataflow",
    "render_issue_trace",
    "star3d1r",
    "workload",
]


# Every export loads its defining module on first access, so importing
# one submodule (say repro.cli for a warm sweep) never pays for the
# whole simulator.
__getattr__, __dir__ = attach(__name__, {
    "repro.api.result": ("Result", "SystemReport"),
    "repro.api.session": ("Session",),
    "repro.api.workloads": ("Workload", "make_workload", "workload"),
    "repro.core.chaining": ("ChainController",),
    "repro.core.cluster": ("Cluster",),
    "repro.core.config": ("CoreConfig", "SystemConfig"),
    "repro.energy.area": ("AreaModel",),
    "repro.energy.model": ("EnergyModel", "EnergyParams"),
    "repro.eval.report": ("geomean",),
    "repro.eval.runner": ("RunResult",),
    "repro.isa.assembler": ("assemble",),
    "repro.isa.disassembler": ("disassemble",),
    "repro.isa.encoding": ("decode", "encode"),
    "repro.kernels.build": ("KernelBuild",),
    "repro.kernels.layout": ("Grid3d",),
    "repro.kernels.partition": ("build_partitioned_stencil",),
    "repro.kernels.stencil": ("StencilSpec", "box3d1r", "j3d27pt",
                              "star3d1r"),
    "repro.kernels.stencil_codegen": ("build_stencil",),
    "repro.kernels.variants": ("Variant",),
    "repro.kernels.vecop": ("VecopVariant", "build_vecop"),
    "repro.system.system": ("GLOBAL_BASE", "System"),
    "repro.sweep.cache": ("ResultCache",),
    "repro.sweep.runner": ("Campaign", "SweepRunner"),
    "repro.sweep.spec": ("SweepSpec", "make_point"),
    "repro.trace.events": ("TraceRecorder",),
    "repro.trace.render": ("render_dataflow", "render_issue_trace"),
})

