"""Memory substrates: flat byte memory and the banked TCDM model.

The Snitch cluster keeps all compute data in a banked tightly-coupled data
memory (TCDM, the L1 scratchpad).  The timing model matters for this
reproduction in two ways:

* bank conflicts between the SSR data movers and the LSUs cost cycles and
  reduce FPU utilization;
* every TCDM access is an energy event, and avoided coefficient re-reads
  are the source of the paper's energy-efficiency gain.
"""

from repro._lazy import attach

__all__ = ["Memory", "Tcdm", "TcdmPort"]

__getattr__, __dir__ = attach(__name__, {
    "repro.mem.memory": ("Memory",),
    "repro.mem.tcdm": ("Tcdm", "TcdmPort"),
})
