"""Stream semantic registers (SSRs), including SARIS-style indirection.

SSRs map the FP registers ``ft0``-``ft2`` to memory streams: while the
``ssr_enable`` CSR bit is set, reading such a register implicitly pops the
next element of a read stream and writing it pushes onto a write stream.
Address patterns are programmed through the ``scfgw`` instruction: affine
multi-dimensional loop nests with an element-repetition count, or indirect
(gather/scatter) patterns where a second index stream supplies offsets, as
introduced by SARIS (Scheffler et al., DAC 2024).
"""

from repro._lazy import attach

__all__ = [
    "AffineGenerator",
    "CfgField",
    "IndirectGenerator",
    "SsrConfig",
    "SsrMode",
    "SsrStreamer",
    "cfg_addr",
]

__getattr__, __dir__ = attach(__name__, {
    "repro.ssr.address_gen": ("AffineGenerator", "IndirectGenerator"),
    "repro.ssr.config": ("CfgField", "SsrConfig", "SsrMode", "cfg_addr"),
    "repro.ssr.streamer": ("SsrStreamer",),
})
