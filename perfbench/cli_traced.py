"""Run the ``repro`` CLI with the benchmark's layer spans recorded.

Traced rounds run their warm CLI calls through this wrapper instead of
``python -m repro``, so the CLI's import, store load, key and cache
lookups show up in the per-layer metrics::

    python3 perfbench/cli_traced.py SPOOL_DIR sweep --preset scaling ...

The spans go to ``SPOOL_DIR/spans-<pid>.jsonl``, where the benchmark
process collects them with its own.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(1, str(HERE.parent / "src"))


def main() -> int:
    spool, args = Path(sys.argv[1]), sys.argv[2:]
    from tracer import Tracer

    tr = Tracer(spool)
    span = tr.begin("cli.import")
    import repro.cli
    tr.end(span)
    tr.close(span)
    import layers
    layers.install(tr)
    try:
        span = tr.begin("cli.main")
        code = repro.cli.main(args)
        tr.end(span)
        tr.close(span)
    finally:
        tr.uninstall()
        tr.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
