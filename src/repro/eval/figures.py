"""Per-figure data harnesses and the paper's reference numbers.

Every figure/claim of the paper has one entry point here; the benchmark
scripts call these and print paper-vs-measured tables.

Paper reference values are transcribed from the text dump of Fig. 3.  The
bar-label association in that dump is ambiguous (see "Known deviations
from the paper" in docs/fidelity.md); the *text* claims of section III are unambiguous and are
the primary reproduction targets:

* Chaining+ vs Base:  ~4% geomean speedup, ~10% geomean energy efficiency;
* Chaining+ vs Base-: ~8% speedup, ~9% energy efficiency;
* Chaining vs Base:   ~7% energy efficiency (no speedup: same issue count);
* FPU utilization above 93% with chaining;
* <2% area overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.parse import VECOP_KERNEL
from repro.api.result import Result
from repro.api.session import Session
from repro.api.workloads import make_workload
from repro.core.config import CoreConfig
from repro.eval.report import geomean
from repro.kernels.layout import Grid3d
from repro.kernels.registry import PAPER_KERNELS
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import VecopVariant

#: Fig. 3 left panel (FPU utilization) as read from the paper.
PAPER_FIG3_UTILIZATION = {
    "box3d1r": {
        Variant.BASE_MM: 0.85, Variant.BASE_M: 0.86, Variant.BASE: 0.87,
        Variant.CHAINING: 0.88, Variant.CHAINING_PLUS: 0.90,
    },
    "j3d27pt": {
        Variant.BASE_MM: 0.91, Variant.BASE_M: 0.90, Variant.BASE: 0.92,
        Variant.CHAINING: 0.93, Variant.CHAINING_PLUS: 0.95,
    },
}

#: Fig. 3 right panel (power, mW) as read from the paper.
PAPER_FIG3_POWER_MW = {
    "box3d1r": {
        Variant.BASE_MM: 60.6, Variant.BASE_M: 60.6, Variant.BASE: 60.5,
        Variant.CHAINING: 60.4, Variant.CHAINING_PLUS: 63.1,
    },
    "j3d27pt": {
        Variant.BASE_MM: 63.2, Variant.BASE_M: 59.6, Variant.BASE: 59.5,
        Variant.CHAINING: 59.7, Variant.CHAINING_PLUS: 59.6,
    },
}

#: Section III text claims (geomeans over the two stencils).
PAPER_CLAIMS = {
    "speedup_chaining_plus_vs_base_pct": 4.0,
    "efficiency_chaining_plus_vs_base_pct": 10.0,
    "speedup_chaining_plus_vs_base_m_pct": 8.0,
    "efficiency_chaining_plus_vs_base_m_pct": 9.0,
    "efficiency_chaining_vs_base_pct": 7.0,
    "min_chaining_utilization": 0.93,
    "area_overhead_max_pct": 2.0,
}


def fig1_data(n: int = 256, loop_mode: str = "frep",
              cfg: CoreConfig | None = None,
              workers: int | None = 0) -> dict[str, Result]:
    """Fig. 1: the three vecop variants (via the unified session)."""
    workloads = [make_workload(VECOP_KERNEL, variant, n=n,
                               loop_mode=loop_mode)
                 for variant in VecopVariant]
    campaign = Session(cfg, workers=workers).map(workloads)
    campaign.raise_on_failure()
    return {o.point.variant: o.result for o in campaign.outcomes}


def fig3_data(kernels: tuple[str, ...] = PAPER_KERNELS,
              variants: tuple[Variant, ...] = VARIANT_ORDER,
              cfg: CoreConfig | None = None,
              grids: dict[str, Grid3d] | None = None,
              workers: int | None = 0,
              ) -> dict[tuple[str, str], Result]:
    """Fig. 3: all (kernel, variant) points, via the unified session.

    The default ``workers=0`` runs serially in-process, which keeps the
    results bit-identical to calling the execution backends in a loop;
    pass ``workers=None`` (all cores) or an explicit count to fan out.
    """
    workloads = [make_workload(kernel, variant,
                               grid=(grids or {}).get(kernel))
                 for kernel in kernels for variant in variants]
    campaign = Session(cfg, workers=workers).map(workloads)
    campaign.raise_on_failure()
    return {(o.point.kernel, o.point.variant): o.result
            for o in campaign.outcomes}


@dataclass
class ClaimsSummary:
    """Measured counterparts of the section III claims."""

    speedup_chaining_plus_vs_base_pct: float
    efficiency_chaining_plus_vs_base_pct: float
    speedup_chaining_plus_vs_base_m_pct: float
    efficiency_chaining_plus_vs_base_m_pct: float
    efficiency_chaining_vs_base_pct: float
    min_chaining_utilization: float

    def as_dict(self) -> dict[str, float]:
        return {
            "speedup_chaining_plus_vs_base_pct":
                self.speedup_chaining_plus_vs_base_pct,
            "efficiency_chaining_plus_vs_base_pct":
                self.efficiency_chaining_plus_vs_base_pct,
            "speedup_chaining_plus_vs_base_m_pct":
                self.speedup_chaining_plus_vs_base_m_pct,
            "efficiency_chaining_plus_vs_base_m_pct":
                self.efficiency_chaining_plus_vs_base_m_pct,
            "efficiency_chaining_vs_base_pct":
                self.efficiency_chaining_vs_base_pct,
            "min_chaining_utilization": self.min_chaining_utilization,
        }


def claims_from_results(results: dict[tuple[str, str], Result],
                        kernels: tuple[str, ...] = PAPER_KERNELS,
                        ) -> ClaimsSummary:
    """Derive the section III claims from a :func:`fig3_data` result set."""

    def ratio(metric, kernel, num_variant, den_variant):
        return metric(results[kernel, num_variant.label]) \
            / metric(results[kernel, den_variant.label])

    def cycles(res: Result) -> float:
        return res.region_cycles

    def eff(res: Result) -> float:
        return res.gflops_per_watt

    def gm_pct(metric, num, den, invert=False) -> float:
        ratios = []
        for kernel in kernels:
            r = ratio(metric, kernel, num, den)
            ratios.append(1.0 / r if invert else r)
        return 100.0 * (geomean(ratios) - 1.0)

    return ClaimsSummary(
        speedup_chaining_plus_vs_base_pct=gm_pct(
            cycles, Variant.CHAINING_PLUS, Variant.BASE, invert=True),
        efficiency_chaining_plus_vs_base_pct=gm_pct(
            eff, Variant.CHAINING_PLUS, Variant.BASE),
        speedup_chaining_plus_vs_base_m_pct=gm_pct(
            cycles, Variant.CHAINING_PLUS, Variant.BASE_M, invert=True),
        efficiency_chaining_plus_vs_base_m_pct=gm_pct(
            eff, Variant.CHAINING_PLUS, Variant.BASE_M),
        efficiency_chaining_vs_base_pct=gm_pct(
            eff, Variant.CHAINING, Variant.BASE),
        # The paper's ">93% FPU utilization" headline refers to the full
        # chaining configuration (Chaining+) on both stencils.
        min_chaining_utilization=min(
            results[kernel, Variant.CHAINING_PLUS.label].fpu_utilization
            for kernel in kernels
        ),
    )
