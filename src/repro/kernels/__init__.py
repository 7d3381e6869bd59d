"""Kernel generators: the paper's workloads as assembly code generators.

* :mod:`repro.kernels.vecop` -- the vector operation ``a = b * (c + d)`` of
  the paper's Fig. 1, in baseline, unrolled and chaining form.
* :mod:`repro.kernels.stencil` / :mod:`repro.kernels.stencil_codegen` --
  the SARIS-style stencil kernels (``box3d1r``, ``j3d27pt`` and friends) in
  the five evaluation variants Base--, Base-, Base, Chaining, Chaining+.

Each generator returns a :class:`repro.kernels.build.KernelBuild`: assembly
text, data arrays, the golden reference and metadata, ready for
:mod:`repro.eval.runner`.
"""

from repro._lazy import attach

__all__ = [
    "Grid3d",
    "KERNELS",
    "KernelBuild",
    "LinalgVariant",
    "STENCILS",
    "StencilSpec",
    "Variant",
    "VecopVariant",
    "box2d1r",
    "box3d1r",
    "build_axpy",
    "build_cdot",
    "build_dot",
    "build_gemv",
    "build_stencil",
    "build_vecop",
    "j2d5pt",
    "j3d27pt",
    "kernel_names",
    "star3d1r",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.kernels.build": ("KernelBuild",),
    "repro.kernels.layout": ("Grid3d",),
    "repro.kernels.linalg": ("LinalgVariant", "build_axpy", "build_cdot",
                             "build_dot", "build_gemv"),
    "repro.kernels.registry": ("KERNELS", "STENCILS", "kernel_names"),
    "repro.kernels.stencil": ("StencilSpec", "box2d1r", "box3d1r",
                              "j2d5pt", "j3d27pt", "star3d1r"),
    "repro.kernels.stencil_codegen": ("build_stencil",),
    "repro.kernels.variants": ("Variant",),
    "repro.kernels.vecop": ("VecopVariant", "build_vecop"),
})
