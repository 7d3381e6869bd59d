"""Seeded workload generation for the three benchmark workloads.

Everything the program sees is produced here from the benchmark seed, so
the same seed gives the same inputs and a different seed gives inputs of
the same sizes and mix.  Draws are stratified (a fixed number from each
size bin or kernel) so that host-time figures do not swing with the luck
of one draw.

Only the workload constructor and the kernel registry are imported, so
the tests can check determinism without simulating anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api.workloads import Workload, make_workload
from repro.kernels.registry import PAPER_KERNELS, STENCILS
from repro.kernels.variants import VARIANT_ORDER

VECOP_VARIANTS = ("baseline", "unrolled", "chaining")
STENCIL_VARIANTS = tuple(v.label for v in VARIANT_ORDER)
#: Non-baseline vecop variants need n to be a multiple of
#: fpu_depth + 1 (4 at the default depth of 3).
VECOP_STEP = 4

#: Stencils without a z dimension take planar grids; the rest 3-D ones.
PLANAR_KERNELS = tuple(k for k, (_, g) in STENCILS.items() if g.nz == 1)

# campaign-scaling: every vecop variant at three narrow size bins, n from
# 1024 to 16384, so the fast path engages on every round.  Narrow bins
# and a fixed variant mix keep the simulated cycles of a round within a
# few percent whatever the seed draws.
SCALING_VECOP_BINS = ((1024, 1152), (4096, 4608), (14336, 16384))
#: Analytical records filled into the store before a cold campaign.
FILL_RECORDS = 2500
#: Share of the fill per family: vecop, single-cluster stencil, system.
FILL_MIX = (("vecop", 0.6), ("stencil", 0.3), ("system", 0.1))

# serve-mixed, per round.
SERVE_HIT_SET = 24
SERVE_HITS = 400
SERVE_COLD_VECOPS = 25
SERVE_COLD_STENCILS_PER_KERNEL = 3
#: Hit-set and cold vecop sizes come from disjoint ranges (in units of
#: VECOP_STEP) so a cold job can never be a hit by accident.
HIT_N_RANGE = (2, 32)
COLD_N_RANGE = (32, 96)
SOLID_GRIDS = ((2, 3, 8), (2, 4, 8), (3, 3, 8))
PLANAR_GRIDS = ((1, 4, 16), (1, 5, 16), (1, 4, 24))


def rng_for(seed: int, stream: str, round_index: int = 0) -> random.Random:
    """Independent random stream per (seed, purpose, round)."""
    return random.Random(f"{seed}/{stream}/{round_index}")


def fig3_order(seed: int, round_index: int = 0) -> list[tuple[str, str]]:
    """The paper's 2 x 5 Fig. 3 points in a seed-drawn order.

    The inputs are the paper's; the seed only orders the points.
    """
    points = [(k, v) for k in PAPER_KERNELS for v in STENCIL_VARIANTS]
    rng_for(seed, "fig3", round_index).shuffle(points)
    return points


def _vecop_n(rng: random.Random, lo: int, hi: int) -> int:
    return VECOP_STEP * rng.randrange(lo // VECOP_STEP, hi // VECOP_STEP)


def scaling_vecops(seed: int, round_index: int = 0) -> list[Workload]:
    """One FREP vecop per variant and size bin of
    :data:`SCALING_VECOP_BINS`."""
    rng = rng_for(seed, "scaling-vecop", round_index)
    return [make_workload("vecop", variant, n=_vecop_n(rng, lo, hi),
                          loop_mode="frep")
            for variant in VECOP_VARIANTS
            for lo, hi in SCALING_VECOP_BINS]


def _fill_one(rng: random.Random, family: str) -> Workload:
    if family == "vecop":
        return make_workload(
            "vecop", rng.choice(VECOP_VARIANTS),
            n=VECOP_STEP * rng.randrange(1, 8192),
            loop_mode=rng.choice(("frep", "bne")))
    if family == "stencil":
        kernel = rng.choice(tuple(STENCILS))
        if kernel in PLANAR_KERNELS:
            grid = (1, rng.randrange(3, 13), 16 * rng.randrange(1, 5))
        else:
            grid = (rng.randrange(2, 7), rng.randrange(3, 9),
                    8 * rng.randrange(1, 5))
        return make_workload(kernel, rng.choice(STENCIL_VARIANTS),
                             grid=grid)
    clusters = rng.choice((2, 4))
    return make_workload(
        rng.choice(PAPER_KERNELS), rng.choice(STENCIL_VARIANTS),
        grid=(clusters * rng.randrange(1, 5), rng.randrange(3, 9),
              8 * rng.randrange(1, 5)),
        system={"num_clusters": clusters, "iters": rng.randrange(1, 4)})


def analytical_fill(seed: int, round_index: int = 0) -> list[Workload]:
    """:data:`FILL_RECORDS` distinct workloads in the fixed
    :data:`FILL_MIX`."""
    rng = rng_for(seed, "fill", round_index)
    out: list[Workload] = []
    for family, share in FILL_MIX:
        want = round(FILL_RECORDS * share) if family != FILL_MIX[-1][0] \
            else FILL_RECORDS - len(out)
        seen = set(out)
        while want:
            work = _fill_one(rng, family)
            if work not in seen:
                seen.add(work)
                out.append(work)
                want -= 1
    return out


@dataclass(frozen=True)
class ServeRound:
    """One closed-loop round of serve-mixed traffic."""

    hit_set: tuple[Workload, ...]
    cold: tuple[Workload, ...]
    #: ``("hit", workload)`` or ``("cold", workload)``; every cold
    #: operation is a submit followed straight away by an identical
    #: duplicate submit.
    ops: tuple[tuple[str, Workload], ...]


def _distinct(rng: random.Random, count: int, draw) -> list[Workload]:
    out: list[Workload] = []
    seen: set[Workload] = set()
    while len(out) < count:
        work = draw(rng)
        if work not in seen:
            seen.add(work)
            out.append(work)
    return out


def serve_round(seed: int, round_index: int = 0) -> ServeRound:
    rng = rng_for(seed, "serve", round_index)
    hit_set = _distinct(rng, SERVE_HIT_SET, lambda r: make_workload(
        "vecop", r.choice(VECOP_VARIANTS),
        n=VECOP_STEP * r.randrange(*HIT_N_RANGE),
        loop_mode=r.choice(("frep", "bne"))))
    cold = _distinct(rng, SERVE_COLD_VECOPS, lambda r: make_workload(
        "vecop", r.choice(VECOP_VARIANTS),
        n=VECOP_STEP * r.randrange(*COLD_N_RANGE),
        loop_mode=r.choice(("frep", "bne"))))
    for kernel in STENCILS:
        grids = PLANAR_GRIDS if kernel in PLANAR_KERNELS else SOLID_GRIDS
        cold += _distinct(
            rng, SERVE_COLD_STENCILS_PER_KERNEL,
            lambda r, k=kernel, g=grids: make_workload(
                k, r.choice(STENCIL_VARIANTS), grid=r.choice(g)))
    ops = [("hit", rng.choice(hit_set)) for _ in range(SERVE_HITS)]
    ops += [("cold", work) for work in cold]
    rng.shuffle(ops)
    return ServeRound(hit_set=tuple(hit_set), cold=tuple(cold),
                      ops=tuple(ops))
