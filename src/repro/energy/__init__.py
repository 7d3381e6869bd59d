"""Event-based energy/power and area models.

The paper's power numbers come from post-layout switching activity in
GF12LP+ at 0.8 V / 25 degC, which we cannot reproduce.  Instead, every
architectural event in the simulator (instruction issue, FPU operation,
register-file/FIFO access, TCDM access, streamer activity) is charged a
technology-plausible unit energy, plus a static per-cycle term.  Relative
power and energy-efficiency across code variants -- the quantities behind
the paper's claims -- are driven by the event *counts*, which the
simulator reproduces exactly.
"""

from repro._lazy import attach

__all__ = ["AreaModel", "EnergyModel", "EnergyParams", "EnergyReport"]

__getattr__, __dir__ = attach(__name__, {
    "repro.energy.area": ("AreaModel",),
    "repro.energy.model": ("EnergyModel", "EnergyParams", "EnergyReport"),
})
