"""Fig. 3 (right panel): power [mW] for two stencils x five variants.

The absolute numbers come from our event-energy model (GF12-plausible
constants, calibrated to the paper's ~60 mW ballpark); the assertions
check the band and the qualitative movements the model can support.  The
known residual vs. the paper -- our Chaining power dips where the paper
shows near-flat bars -- is recorded under "Known deviations from the
paper" in docs/fidelity.md.
"""

from repro.eval.figures import PAPER_FIG3_POWER_MW
from repro.eval.report import format_table
from repro.kernels.registry import PAPER_KERNELS
from repro.kernels.variants import VARIANT_ORDER, Variant


def test_fig3_power(benchmark, fig3_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for kernel in PAPER_KERNELS:
        for variant in VARIANT_ORDER:
            res = fig3_results[kernel, variant.label]
            paper = PAPER_FIG3_POWER_MW[kernel][variant]
            rows.append([kernel, variant.label, paper,
                         round(res.power_mw, 1),
                         round(res.power_mw - paper, 1)])
    print()
    print(format_table(
        ["kernel", "variant", "paper mW", "measured mW", "delta"],
        rows, title="Fig. 3 right: power"))

    for kernel in PAPER_KERNELS:
        powers = {v: fig3_results[kernel, v.label].power_mw
                  for v in VARIANT_ORDER}
        # The paper's band is ~59.5-63.2 mW; we target the same decade.
        assert all(45.0 < p < 75.0 for p in powers.values()), powers
        # Chaining variants never burn more power than Base: the
        # coefficient stream's TCDM traffic is gone.
        assert powers[Variant.CHAINING] <= powers[Variant.BASE]


def test_energy_breakdown_structure(benchmark, fig3_results):
    """TCDM dominates the energy breakdown, as the analysis assumes."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    res = fig3_results["box3d1r", Variant.BASE.label]
    breakdown = res.energy.breakdown
    assert breakdown["tcdm"] == max(breakdown.values())
    assert res.energy.fraction("tcdm") > 0.3
