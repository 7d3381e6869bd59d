#!/usr/bin/env python
"""Gate CI on benchmark wall-clock regressions.

Compares a fresh pytest-benchmark JSON report against the checked-in
baseline (``benchmarks/BASELINE.json``) and fails when a gated
benchmark got more than ``--threshold`` slower.

Raw seconds are not comparable across runner generations, so both sides
are normalized by a *calibration* measurement: a small, fixed,
deterministic simulator workload timed on the current machine and
recorded in the baseline at update time.  The comparison is then
``current / (baseline * cal_now / cal_baseline)``.

The benchmark session (``benchmarks/conftest.py``) times one calibration
burst after each gated benchmark and records the bursts and their
median in the report's ``calibration`` entry; that median is the
calibration of the report, so host speed drift during the session lands
on both sides of the ratio.  A report without the entry (one written by
an older harness) is calibrated here, with one burst.

Refresh the baseline (after an intentional perf change, from a quiet
machine) from one or more benchmark sessions with::

    for i in 1 2 3 4 5; do
        PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
            --benchmark-json=bench$i.json
    done
    python scripts/check_bench_regression.py --current bench*.json \
        --baseline benchmarks/BASELINE.json --update

With several reports, each benchmark's baseline is the median over the
reports of its time divided by that report's calibration, so one noisy
session does not set the bar.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
# The calibration workload runs on the frozen seed interpreter, the test
# oracle, so its timing never moves with engine optimizations.
sys.path.insert(0, str(REPO / "tests"))

#: Benchmarks gated by default (regex fragments matched against names).
GATED = ("fastpath", "fig1", "vecop_wallclock", "scalar_v2",
         "system_scaling")


def calibrate(rounds: int = 5) -> float:
    """Seconds for a fixed seed-interpreter simulation (best of rounds).

    The workload must be big enough to dominate interpreter startup
    jitter; the best-of keeps scheduler noise out of the scale factor.
    """
    from oracle import SeedCluster
    from repro.core.config import CoreConfig
    from repro.kernels.vecop import VecopVariant, build_vecop

    best = float("inf")
    for _ in range(rounds):
        cfg = CoreConfig(engine="scalar-v2")
        build = build_vecop(n=1024, variant=VecopVariant.CHAINING,
                            cfg=cfg)
        cluster = SeedCluster(build.asm, cfg=cfg, symbols=build.symbols)
        build.load_into(cluster)
        start = time.perf_counter()
        cluster.run()
        best = min(best, time.perf_counter() - start)
    return best


def load_current(path: Path) -> tuple[dict[str, float], float | None]:
    """Median seconds per benchmark, and the report's calibration (the
    median of its interleaved bursts; None when it has none)."""
    data = json.loads(path.read_text())
    out = {}
    for bench in data.get("benchmarks", []):
        out[bench["name"]] = bench["stats"]["median"]
    cal = data.get("calibration", {}).get("seconds")
    return out, cal


def gated(names, patterns) -> list[str]:
    return [n for n in names if any(p in n for p in patterns)]


def write_step_summary(rows: list[dict], scale: float,
                       threshold: float) -> None:
    """Append the comparison table to the GitHub Actions job summary.

    A no-op outside Actions (``GITHUB_STEP_SUMMARY`` unset); the same
    information is always printed to stdout.
    """
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [
        "## Benchmark regression gate",
        "",
        f"Calibration scale vs baseline machine: `{scale:.2f}x`; "
        f"fail threshold `{threshold:.2f}x`.",
        "",
        "| benchmark | current | scaled baseline | ratio | verdict |",
        "|---|---:|---:|---:|---|",
    ]
    for row in rows:
        if row["current_ms"] is None:
            lines.append(f"| `{row['name']}` | missing | "
                         f"{row['baseline_ms']:.2f} ms | - | :x: missing |")
            continue
        verdict = ":white_check_mark: ok" if row["ok"] \
            else ":x: regression"
        lines.append(
            f"| `{row['name']}` | {row['current_ms']:.2f} ms "
            f"| {row['baseline_ms']:.2f} ms | {row['ratio']:.2f}x "
            f"| {verdict} |")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True, nargs="+",
                        help="pytest-benchmark JSON of this run (with "
                             "--update, one or more sessions)")
    parser.add_argument("--baseline", default="benchmarks/BASELINE.json")
    parser.add_argument("--threshold", type=float, default=1.2,
                        help="max allowed slowdown ratio (default 1.2 "
                             "= 20%%)")
    parser.add_argument("--select", action="append", default=None,
                        help="gate benchmarks whose name contains this "
                             "(repeatable; default: fastpath, fig1)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from --current")
    args = parser.parse_args(argv)
    if len(args.current) > 1 and not args.update:
        parser.error("gating takes one --current report")

    reports = []
    for path in args.current:
        current, cal = load_current(Path(path))
        if cal is None:
            print(f"{path} has no calibration bursts; calibrating here")
            cal = calibrate()
        reports.append((current, cal))
    patterns = tuple(args.select) if args.select else GATED

    if args.update:
        names = gated(set.intersection(*(set(c) for c, _ in reports)),
                      patterns)
        cal = statistics.median(c for _, c in reports)
        baseline = {
            "calibration_seconds": round(cal, 6),
            "threshold": args.threshold,
            "benchmarks": {
                n: round(cal * statistics.median(
                    current[n] / c for current, c in reports), 6)
                for n in sorted(names)},
        }
        Path(args.baseline).write_text(json.dumps(baseline, indent=2)
                                       + "\n")
        print(f"baseline updated from {len(reports)} report(s): "
              f"{len(names)} benchmarks, calibration {cal * 1e3:.2f} ms")
        return 0

    current, cal = reports[0]

    baseline = json.loads(Path(args.baseline).read_text())
    scale = cal / baseline["calibration_seconds"]
    print(f"calibration: baseline "
          f"{baseline['calibration_seconds'] * 1e3:.2f} ms, here "
          f"{cal * 1e3:.2f} ms -> scale {scale:.2f}x")

    failures = []
    rows = []
    for name, base_median in sorted(baseline["benchmarks"].items()):
        if name not in current:
            print(f"  MISSING  {name} (in baseline, not in this run)")
            failures.append(name)
            rows.append({"name": name, "current_ms": None,
                         "baseline_ms": base_median * scale * 1e3,
                         "ratio": None, "ok": False})
            continue
        allowed = base_median * scale * args.threshold
        ratio = current[name] / (base_median * scale)
        ok = current[name] <= allowed
        verdict = "ok" if ok else "REGRESSION"
        print(f"  {verdict:10s} {name}: {current[name] * 1e3:8.2f} ms "
              f"vs scaled baseline {base_median * scale * 1e3:8.2f} ms "
              f"({ratio:.2f}x)")
        rows.append({"name": name, "current_ms": current[name] * 1e3,
                     "baseline_ms": base_median * scale * 1e3,
                     "ratio": ratio, "ok": ok})
        if not ok:
            failures.append(name)
    write_step_summary(rows, scale, args.threshold)

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed beyond "
              f"{args.threshold:.2f}x: {', '.join(failures)}")
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
