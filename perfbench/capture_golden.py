"""Regenerate ``golden_fig3.json``: the per-point simulated statistics of
the paper's Fig. 3 (cycles, region cycles, FPU utilisation, stalls and
TCDM statistics) that the ``paper-fig3`` workload must reproduce.

Simulated statistics are deterministic, so the golden changes only when
the modelled hardware or the generated code changes on purpose::

    python3 perfbench/capture_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))


def main() -> None:
    from phases import GOLDEN_FIG3, golden_stats, tcdm_reports
    from repro.eval.figures import fig3_data

    with tcdm_reports() as tcdm:
        results = fig3_data()
    golden = {f"{kernel}/{label}": golden_stats(result, stats)
              for ((kernel, label), result), stats
              in zip(results.items(), tcdm)}
    GOLDEN_FIG3.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
