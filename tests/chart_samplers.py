"""The sampled chart-image check that bundles.pullback used to run: a
cross-check oracle for pullback's image argument, which pushes each preimage
set's conjuncts in y through the chart and samples nothing."""

import numpy as np

from cechcert.hexpr import evaluate


def forward_complex(chart, zc: np.ndarray) -> np.ndarray:
    """The chart's images of (m, n) complex coordinates, as (m, n_out)."""
    return np.array([[evaluate(e, row) for e in chart.forward] for row in np.asarray(zc, dtype=complex)])


def forward_xy(chart, pts: np.ndarray) -> np.ndarray:
    """The chart's images of (m, 2n) real coordinates, as (m, 2 n_out) real
    coordinates."""
    pts = np.asarray(pts, dtype=float)
    wc = forward_complex(chart, pts[:, 0::2] + 1j * pts[:, 1::2])
    out = np.empty((pts.shape[0], 2 * chart.n_out))
    out[:, 0::2] = wc.real
    out[:, 1::2] = wc.imag
    return out


def escaping_sets(bundle, chart, pre_cover, rng: np.random.Generator, samples_per_set: int = 200) -> list[str]:
    """The names of the preimage sets with a sampled point whose image leaves
    its target, set i of the bundle's cover."""
    return [
        name
        for i, (name, reg) in enumerate(pre_cover.sets)
        if not all(bundle.cover.region(i).mask(forward_xy(chart, reg.sample(samples_per_set, rng))))
    ]
