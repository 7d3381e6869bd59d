#!/usr/bin/env python
"""Count the bytecodes the simulator executes per simulated cycle.

Runs one stencil point under ``sys.settrace`` with opcode tracing on and
divides the number of opcode events by the simulated cycles (with
``--clusters N``, a multi-cluster :class:`~repro.system.System` run,
divided by the cycles summed over its clusters).  Opcode
events are a deterministic, host-independent measure of the interpreter
work per cycle: the same code and workload always give the same count,
so a change to the per-cycle loop can be judged without wall-clock
noise.  The workload runs once untraced first, so process-wide caches
(generated FP issue templates, compiled cycle loops) are warm and only
per-run work is counted.

Usage::

    PYTHONPATH=src python scripts/count_bytecodes.py \\
        --kernel j3d27pt --variant Chaining+ --grid 2 4 16 [--by-function]
    PYTHONPATH=src python scripts/count_bytecodes.py --clusters 4 \\
        --grid 8 4 16

``--by-function`` adds a table of opcode events per simulated cycle for
each function (qualified name, with the file for generated code), most
expensive first.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path


def _build(kernel: str, variant: str, grid: tuple[int, int, int],
           clusters: int):
    """A fresh simulation: ``(run, simulated cycles)`` callables."""
    from repro.core.config import CoreConfig
    from repro.kernels.layout import Grid3d
    from repro.kernels.registry import get_stencil
    from repro.kernels.variants import Variant

    spec, _ = get_stencil(kernel)
    cfg = CoreConfig()
    if clusters > 1:
        from repro.eval.system_runner import make_system_config
        from repro.kernels.partition import build_partitioned_stencil
        from repro.system import System

        sys_cfg = make_system_config(clusters, cfg)
        build = build_partitioned_stencil(
            spec, Grid3d(*grid), Variant.from_label(variant), clusters,
            cfg=sys_cfg)
        system = System(build.asms, sys_cfg)
        build.load_into(system)
        return system.run, lambda: sum(system.per_cluster_cycles())
    from repro.core.cluster import Cluster
    from repro.kernels.stencil_codegen import build_stencil

    build = build_stencil(spec, Grid3d(*grid), Variant.from_label(variant))
    cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
    build.load_into(cluster)
    return cluster.run, lambda: cluster.cycle


def _label(code) -> str:
    name = getattr(code, "co_qualname", code.co_name)
    filename = code.co_filename
    if filename.startswith("<"):
        return f"{filename}:{name}"
    return f"{Path(filename).stem}.{name}"


def count(kernel: str, variant: str, grid: tuple[int, int, int],
          clusters: int = 1) -> tuple[int, int, Counter]:
    """``(opcode events, simulated cycles, events per code object)`` of
    one run after an untraced warm-up run of the same workload."""
    _build(kernel, variant, grid, clusters)[0]()
    run, cycles = _build(kernel, variant, grid, clusters)
    per_code: Counter = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            per_code[frame.f_code] += 1
        return local

    def global_(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(global_)
    try:
        run()
    finally:
        sys.settrace(None)
    return sum(per_code.values()), cycles(), per_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--kernel", default="j3d27pt")
    parser.add_argument("--variant", default="Chaining+")
    parser.add_argument("--grid", type=int, nargs=3, default=(2, 4, 16),
                        metavar=("NZ", "NY", "NX"))
    parser.add_argument("--clusters", type=int, default=1,
                        help="run a multi-cluster System of this size")
    parser.add_argument("--by-function", action="store_true",
                        help="per-function opcode events per cycle")
    args = parser.parse_args(argv)

    total, cycles, per_code = count(args.kernel, args.variant,
                                    tuple(args.grid), args.clusters)
    grid = "x".join(map(str, args.grid))
    unit = "simulated cycle" if args.clusters == 1 else "cluster-cycle"
    print(f"{args.kernel} {args.variant} grid {grid} "
          f"({args.clusters} cluster{'s' if args.clusters > 1 else ''}): "
          f"{cycles} {unit}s, {total} opcodes, "
          f"{total / cycles:.1f} opcodes per {unit}")
    if args.by_function:
        per_label: Counter = Counter()
        for code, events in per_code.items():
            per_label[_label(code)] += events
        print(f"{'per cycle':>10}  function")
        for label, events in per_label.most_common():
            print(f"{events / cycles:10.1f}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
