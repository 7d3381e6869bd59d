"""Public-API surface snapshots.

``repro.__all__`` and ``repro.api.__all__`` are pinned against
checked-in lists so that surface changes are always a reviewed,
deliberate diff -- update the snapshot here when the API genuinely
grows or shrinks.
"""

import warnings

import repro
import repro.api

REPRO_ALL = [
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

REPRO_API_ALL = [
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


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == REPRO_ALL
    assert repro.__all__ == sorted(repro.__all__)


def test_repro_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == REPRO_API_ALL
    assert repro.api.__all__ == sorted(repro.api.__all__)


def test_every_exported_name_resolves():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name
        for name in repro.api.__all__:
            assert getattr(repro.api, name) is not None, name


def test_star_import_is_warning_free():
    """`import *` must never surface deprecation noise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec("from repro import *", {})
        exec("from repro.sweep import *", {})

