"""Section III text claims: the paper's headline numbers.

* ~4% geomean speedup and ~10% geomean energy-efficiency gain of
  Chaining+ over Base [SARIS],
* ~8% / ~9% over the direct comparison point Base-,
* ~7% energy-efficiency gain of Chaining over Base (coefficients moved
  to the register file; same instruction count, so no speedup),
* FPU utilization above 93% with chaining.

Measured geomeans are printed next to the paper's numbers and asserted
with tolerances that reflect a cycle-level (non-RTL) reproduction; the
Base- comparisons are looser because our Base- schedules its spill
reloads better than the paper's (see "Known deviations from the paper"
in docs/fidelity.md).
"""

from repro.eval.figures import PAPER_CLAIMS, claims_from_results
from repro.eval.report import format_table


def test_section3_claims(benchmark, fig3_results):
    claims = benchmark.pedantic(claims_from_results,
                                args=(fig3_results,), rounds=1,
                                iterations=1)
    measured = claims.as_dict()
    rows = []
    for key, paper_value in PAPER_CLAIMS.items():
        if key not in measured:
            continue
        rows.append([key, paper_value, round(measured[key], 2)])
    print()
    print(format_table(["claim", "paper", "measured"], rows,
                       title="Section III claims (geomean over the two "
                             "stencils)"))

    # Chaining+ vs Base: the headline 4% / 10%.
    assert 2.0 <= measured["speedup_chaining_plus_vs_base_pct"] <= 8.0
    assert 6.0 <= measured["efficiency_chaining_plus_vs_base_pct"] <= 15.0
    # Chaining vs Base: ~7% energy efficiency, roughly no speedup.
    assert 4.0 <= measured["efficiency_chaining_vs_base_pct"] <= 12.0
    # Chaining+ vs Base-: positive in both metrics (paper: 8%/9%; our
    # Base- is stronger than the paper's, see docs/fidelity.md).
    assert measured["speedup_chaining_plus_vs_base_m_pct"] > 0
    assert measured["efficiency_chaining_plus_vs_base_m_pct"] > 0
    # >93% utilization with chaining.
    assert measured["min_chaining_utilization"] > 0.90
