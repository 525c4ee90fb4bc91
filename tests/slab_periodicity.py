"""The per-point periodicity loop of the slab pipeline: a cross-check oracle
for scenarios.periodicity_pairs, which decides the shifted points of each
overlap component with one Region.mask call."""

import math

import numpy as np

from cechcert.geometry import CPoint

SAMPLES = 50


def sampled_periodicity(nerve, region, rng: np.random.Generator) -> tuple[bool, int]:
    """Shift the representative and SAMPLES sampled points of each overlap
    component by 2 pi in x1, in x2 and in both (-x1, +x2), one point at a
    time; return whether every pair that stays in `region` keeps its
    component, and how many pairs stay."""
    ok, checked = True, 0
    for ci in range(len(nerve.components((0, 1)))):
        pts = [nerve.components((0, 1))[ci]]
        pts.extend(CPoint(tuple(q)) for q in region.sample(SAMPLES, rng))
        for p in pts:
            for k1, k2 in ((1, 0), (0, 1), (-1, 1)):
                shifted = CPoint(
                    (
                        p.xy[0] + 2 * math.pi * k1,
                        p.xy[1],
                        p.xy[2] + 2 * math.pi * k2,
                        p.xy[3],
                    )
                )
                if not region.contains(shifted):
                    continue
                checked += 1
                if nerve.locate((0, 1), p) != nerve.locate((0, 1), shifted):
                    ok = False
    return ok, checked
