"""Tiered fidelity: the closed-form ``"analytical"`` engine.

* :mod:`repro.analytical.model` -- per-kernel-family cycle/energy
  estimators behind the unchanged Workload/Session/Result surface
  (``engine="analytical"``);
* :mod:`repro.analytical.calibrate` -- the cross-validation harness:
  run both backends over a spec, fit per-family correction factors,
  emit a ``repro-calibration/v1`` report with error bounds;
* :mod:`repro.analytical.triage` -- ``Session.map(fidelity="triage")``
  support: estimate everything, simulate only the interest region.
"""

from repro._lazy import attach
# Eager: the function shares its module's name, and a lazy binding
# would be replaced by the submodule the first time it is imported.
from repro.analytical.calibrate import calibrate

__all__ = [
    "ANALYTICAL_ENGINE",
    "CALIBRATION_SCHEMA",
    "CalibrationReport",
    "FAMILIES",
    "FIDELITY_ANALYTICAL",
    "FIDELITY_KEY",
    "FamilyFit",
    "TriagePlan",
    "calibrate",
    "calibration_builds",
    "calibration_workloads",
    "estimate_build",
    "estimate_workload",
    "kernel_family",
    "select_interest",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.analytical.calibrate": ("CALIBRATION_SCHEMA", "CalibrationReport",
                                   "FamilyFit", "calibration_builds",
                                   "calibration_workloads"),
    "repro.analytical.model": ("ANALYTICAL_ENGINE", "FAMILIES",
                               "FIDELITY_ANALYTICAL", "FIDELITY_KEY",
                               "estimate_build", "estimate_workload",
                               "kernel_family"),
    "repro.analytical.triage": ("TriagePlan", "select_interest"),
})
