"""One command for the repo benchmark.

    python3 perfbench/run.py --workload paper-fig3 --seed 1 --seconds 20 \\
        --trace 0

runs one workload (``paper-fig3``, ``campaign-scaling`` or
``serve-mixed``; see ``BENCHMARK.json``) for about ``--seconds`` seconds,
checks every output, prints a report and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures the end-to-end metrics with tracing off.
* ``--trace 1`` alternates untraced and traced rounds: the traced ones
  give the per-layer metrics (``perfbench/layers.json`` says which
  end-to-end metric each one should move) and a Chrome trace-event file
  under ``.perfbench/``; the difference between the two is the tracing
  overhead.

Exit status: 0 when every output was correct, 1 on any mismatch, 2 when
the program under test is missing.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import layers
from quantiles import min_samples, supported
from tracer import Tracer, chrome_trace, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that hangs is stopped (and fails) with time left for clean-up
#: inside the 180 s a run may take.
DEADLINE_S = 150


class Overrun(BaseException):
    """The run passed :data:`DEADLINE_S`.  Not an ``Exception``, so no
    handler in the benchmark or the program swallows it."""


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "sim_cycles_per_s": "cycles/s",
             "cold_p50_ms": "ms", "warm_p50_ms": "ms", "peak_rss_mb": "MB"}


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, where the program runs; with
    ``RUSAGE_CHILDREN``, of its largest finished child (a pool worker,
    a CLI call, an import probe or the calibration helper)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_rounds(wl, seconds: float, traced: bool) -> dict:
    """Rounds until the next one would overrun ``seconds`` (at least
    ``wl.min_rounds``).  With ``traced``, untraced and traced rounds
    alternate and the traced ones are recorded."""
    start = time.perf_counter()
    least = 2 if traced else wl.min_rounds
    walls = {False: [], True: []}
    traced_rounds = []
    index = 0
    while True:
        with_trace = traced and index % 2 == 1
        tracer = None
        if with_trace:
            wl.spool = wl.work / f"spool{index}"
            tracer = Tracer(wl.spool)
            layers.install(tracer)
        try:
            windows = wl.round(index)
        finally:
            if tracer is not None:
                tracer.uninstall()
                wl.spool = None
        walls[with_trace].append(wl.wall_s[-1])
        if with_trace:
            traced_rounds.append((tracer.collect(), windows,
                                  dict(wl.round_layers)))
        index += 1
        elapsed = time.perf_counter() - start
        pairs_done = not traced or index % 2 == 0
        if index >= least and pairs_done and \
                elapsed * (index + 1) / index > seconds:
            break
    return {"walls": walls, "traced": traced_rounds, "rounds": index,
            "elapsed": time.perf_counter() - start}


def in_windows(span: dict, windows: dict, names) -> bool:
    return any(windows[n][0] <= span["start"] <= windows[n][1]
               for n in names if n in windows)


def layer_report(wl, run: dict) -> tuple[dict, list]:
    """Per-layer metrics (mean over traced rounds) and the table rows."""
    from phases import fresh_import_seconds

    per_round = []
    table: dict[str, dict] = {}
    timed_s = 0.0
    for spans, windows, round_layers in run["traced"]:
        timed = [s for s in spans if in_windows(s, windows,
                                                ("cold", "warm"))]
        extra = dict(round_layers)
        # The store is opened during set-up; its load time is reported
        # with the timed phases it serves.
        extra["sweep.cache_load_s"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "sweep.cache_load") / 1e9
        requests = sum(s["end"] - s["start"] for s in timed
                       if s["name"] == "serve.request")
        submits = sum(s["end"] - s["start"] for s in timed
                      if s["name"] == "serve.scheduler_submit")
        extra["serve.http_s"] = (requests - submits) / 1e9
        per_round.append(layers.metrics(timed, extra))
        for name, entry in self_times(timed).items():
            row = table.setdefault(name, {"self_s": 0.0, "calls": 0})
            row["self_s"] += entry["self_s"]
            row["calls"] += entry["calls"]
        timed_s += sum((w[1] - w[0]) / 1e9 for n, w in windows.items()
                       if n in ("cold", "warm"))
    values = {name: statistics.fmean(r[name] for r in per_round)
              for name in per_round[0]}
    untraced, traced = run["walls"][False], run["walls"][True]
    values["trace.overhead_s"] = statistics.median(traced) \
        - statistics.median(untraced)
    values["cli.import_s"] = statistics.median(
        fresh_import_seconds("repro.cli") for _ in range(3))
    rows = sorted(((name, row["self_s"], row["calls"],
                    row["self_s"] / timed_s if timed_s else 0.0)
                   for name, row in table.items()),
                  key=lambda r: -r[1])
    return values, rows


def write_trace(wl, run: dict, seed: int) -> Path:
    """Chrome trace-event JSON of the traced rounds, schema-checked by
    the repository's own ``scripts/check_trace_schema.py``."""
    spans = [s for spans, _, _ in run["traced"] for s in spans]
    names = {s["pid"]: "repro CLI" for s in spans
             if s["name"] == "cli.import"}
    names[os.getpid()] = f"perfbench {wl.name}"
    out = ROOT / ".perfbench" / f"trace-{wl.name}-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(chrome_trace(spans, names)))
    spec = importlib.util.spec_from_file_location(
        "check_trace_schema", ROOT / "scripts" / "check_trace_schema.py")
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    errors = checker.validate_trace(str(out))
    wl.check(not errors, f"trace schema: {errors[:3]}")
    return out


def fmt(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
        return f"{value:.4e}"
    return f"{value:.4f}"


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    cells = [header] + [[c if isinstance(c, str) else fmt(c) for c in row]
                        for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    print(f"\n{title}")
    for i, row in enumerate(cells):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            print("  " + "  ".join("-" * w for w in widths))


def pct_row(name: str, ops, pct: float, scale: float) -> list:
    n = len(ops.samples)
    if not supported(pct, n):
        missing = f"n/a (needs {min_samples(pct)})"
        return [name, missing, missing, "ms", str(n)]
    return [name, ops.pct_ms(pct) * scale, ops.pct_ms(pct), "ms", str(n)]


def end_to_end(wl) -> tuple[dict[str, float], dict[str, float]]:
    """(raw, reported) end-to-end metrics; reported host times are
    scaled to the reference host speed (see calibrate.py)."""
    raw = {"setup_s": statistics.median(wl.setup_s), **wl.timed(),
           "warm_p50_ms": wl.warm.pct_ms(50), "peak_rss_mb": peak_rss_mb()}
    scale = wl.cal.scale
    scaled = {name: value * scale for name, value in raw.items()}
    scaled["sim_cycles_per_s"] = raw["sim_cycles_per_s"] / scale
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return raw, scaled


def report_end_to_end(wl, raw: dict, scaled: dict) -> None:
    rounds = f"{len(wl.wall_s)} rounds"
    scale = wl.cal.scale

    def row(name, unit, samples, value=None):
        return [name, scaled[name] if value is None else value * scale,
                raw[name] if value is None else value, unit, samples]

    rows = [
        row("setup_s", "s", f"{len(wl.setup_s)} set-ups"),
        row("wall_s", "s", rounds),
        row("sim_cycles_per_s", "cycles/s", rounds),
        row("cold_p50_ms", "ms", str(len(wl.cold.samples))),
        row("warm_p50_ms", "ms", str(len(wl.warm.samples))),
    ]
    if wl.name in ("paper-fig3", "campaign-scaling"):
        rows.append(row("cli_warm_s", "s", f"{len(wl.warm.samples)} calls",
                        value=raw["warm_p50_ms"] / 1e3))
    if wl.name == "serve-mixed":
        rows += [pct_row("serve_hit_p50_ms", wl.hit, 50, scale),
                 pct_row("serve_hit_p99_ms", wl.hit, 99, scale),
                 pct_row("serve_dedup_p50_ms", wl.dedup, 50, scale),
                 pct_row("serve_dedup_p90_ms", wl.dedup, 90, scale),
                 pct_row("serve_cold_p50_ms", wl.cold, 50, scale),
                 pct_row("serve_cold_p90_ms", wl.cold, 90, scale)]
    error_rate = wl.failed / max(wl.attempted, 1)
    rows.append(["error_rate", error_rate, error_rate, "ratio",
                 f"{wl.failed}/{wl.attempted}"])
    rows.append(row("peak_rss_mb", "MB", "1"))
    children = peak_rss_mb(resource.RUSAGE_CHILDREN)
    rows.append(["peak_rss_children_mb", children, children, "MB",
                  "largest child"])
    if wl.name == "paper-fig3":
        dev = paper_dev_max_pp(wl.claims)
        rows.append(["paper_dev_max_pp", dev, dev, "pp", "5 claims"])
    print_table(
        "end-to-end metrics (tracing off; host times scaled to the "
        f"reference host speed, scale {scale:.4f} from "
        f"{len(wl.cal.bursts)} calibration bursts)",
        ["metric", "value", "raw", "unit", "samples"], rows)
    if wl.name == "paper-fig3":
        report_paper(wl.claims)


def _pct_claims(claims) -> dict[str, tuple[float, float]]:
    from repro.eval.figures import PAPER_CLAIMS
    measured = claims.as_dict()
    return {name: (PAPER_CLAIMS[name], measured[name])
            for name in measured if name.endswith("_pct")}


def paper_dev_max_pp(claims) -> float:
    return max(abs(m - p) for p, m in _pct_claims(claims).values())


def report_paper(claims) -> None:
    """Simulated speed-ups beside their error against the paper."""
    rows = [[name, paper, measured, measured - paper]
            for name, (paper, measured) in _pct_claims(claims).items()]
    print_table("paper accuracy (section III claims, simulated)",
                ["claim", "paper %", "measured %", "deviation pp"], rows)


def report_layers(wl, values: dict, rows: list, run: dict,
                  trace_path: Path) -> None:
    units = layers.units()
    mapping = json.loads((HERE / "layers.json").read_text())["layers"]
    print_table(
        f"per-layer metrics (traced rounds: {len(run['traced'])})",
        ["metric", "value", "unit", "moves", "on", "bypass"],
        [[name, values[name], units[name],
          mapping[name]["moves"], mapping[name]["on"],
          mapping[name]["bypass"]] for name in units])
    print_table("self time by span (timed phases of traced rounds)",
                ["span", "self s", "calls", "share of timed wall"], rows)
    untraced, traced = run["walls"][False], run["walls"][True]
    print(f"\ntracing overhead on wall_s: {fmt(values['trace.overhead_s'])}"
          f" s (traced median {fmt(statistics.median(traced))} s vs "
          f"untraced {fmt(statistics.median(untraced))} s)")
    if rows:
        top = rows[0][0]
        print(f"dominant self time: {top}")
    print(f"trace written to {trace_path.relative_to(ROOT)}")


def confirm_layer_map(wl, rows: list, run: dict) -> None:
    """The layer map, confirmed by measurement: core.run dominates the
    paper's Fig. 3, and serve-mixed hits never reach the core."""
    if wl.name == "paper-fig3":
        wl.check(bool(rows) and rows[0][0] == "core.run",
                 f"paper-fig3: dominant self time is "
                 f"{rows[0][0] if rows else None}, expected core.run")
    if wl.name == "serve-mixed":
        # A hit job is one whose submit found its point in the store;
        # its requests are the client round trips carrying its id.
        # Whatever core.run time overlaps them was spent on hits.
        for spans, _, _ in run["traced"]:
            hit_submits = {c["parent"] for c in spans
                           if c["name"] == "sweep.cache_get"
                           and c["args"].get("hit")}
            hit_jobs = {s["request"] for s in spans
                        if s["name"] == "serve.scheduler_submit"
                        and s["id"] in hit_submits}
            hits = [s for s in spans if s["name"] == "serve.request"
                    and s["request"] in hit_jobs]
            runs = [s for s in spans if s["name"] == "core.run"]
            core = sum(max(0, min(h["end"], r["end"])
                           - max(h["start"], r["start"]))
                       for h in hits for r in runs)
            wl.check(bool(hits) and core == 0,
                     f"serve-mixed: core.run {core / 1e9} s inside "
                     f"{len(hits)} hit requests")
            print(f"core.run time inside {len(hits)} hit requests: "
                  f"{core / 1e9} s (core.run calls in the round: "
                  f"{len(runs)})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    from phases import WORKLOADS, reap_children

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    def overran(signum, frame):
        raise Overrun(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, overran)
    signal.alarm(DEADLINE_S)
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work)
    print(f"perfbench {wl.name}: seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    try:
        run = run_rounds(wl, args.seconds, bool(args.trace))
        if args.trace:
            values, rows = layer_report(wl, run)
            trace_path = write_trace(wl, run, args.seed)
            confirm_layer_map(wl, rows, run)
            report_layers(wl, values, rows, run, trace_path)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in layers.units().items()}
        else:
            raw, values = end_to_end(wl)
            report_end_to_end(wl, raw, values)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in E2E_UNITS.items()}
    except Overrun as exc:
        print(f"perfbench: {exc}; {wl.failed} checks had failed",
              file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        reap_children()
        wl.cal.close()
        shutil.rmtree(work, ignore_errors=True)
    print(f"\n{run['rounds']} rounds in {run['elapsed']:.1f} s; "
          f"{wl.failed} of {wl.attempted} checks failed")
    for failure in wl.failures[:20]:
        print(f"MISMATCH {failure}")
    correct = wl.failed == 0
    print(json.dumps({"correct": correct, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
