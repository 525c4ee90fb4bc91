"""The sampled cover check the slab pipeline used to run: a cross-check oracle
for nerve.check_cover, which proves the slab cover from its constraint trees
and samples nothing."""

import numpy as np

from cechcert.errors import ResolutionError


def sampled_check_cover(cover, rng: np.random.Generator, samples: int = 500) -> None:
    """Sampled invariants: every set lies in the ambient, and sampled ambient
    points are covered by some set; a ResolutionError for the first that
    fails."""
    for name, reg in cover.sets:
        pts = reg.sample(samples, rng)
        inside = cover.ambient.mask(pts)
        if not np.all(inside):
            raise ResolutionError(f"set {name!r} leaves the ambient region")
    pts = cover.ambient.sample(samples, rng)
    covered = np.zeros(pts.shape[0], dtype=bool)
    for _, reg in cover.sets:
        covered |= reg.mask(pts)
    if not np.all(covered):
        raise ResolutionError("sampled ambient points escape the cover")
