"""Region masks and lattice components against independent references.

`Region.mask` is checked against a point-by-point evaluation of the
constraint's JSON form with `math.hypot` and `math.log`; `grid_components`
against the connected components networkx finds on the in-region lattice
graph.
"""

import math
import warnings

import networkx as nx
import numpy as np
import pytest

from cechcert.covers import (
    dim2_cover,
    omega_minus_shell,
    omega_minus_thickened_k,
    omega_prime_region,
    tube_cover_dim2,
    up_ball,
    with_bbox,
)
from cechcert.geometry import COr, Region, ball_region, grid_components


def _ref(e, xy):
    """Scalar value of a constraint or expression in JSON form at one point."""
    op = e["op"]
    if op == "const":
        return e["value"]
    if op == "x":
        return xy[2 * e["j"]]
    if op == "y":
        return xy[2 * e["j"] + 1]
    if op == "abs_z":
        return math.hypot(xy[2 * e["j"]], xy[2 * e["j"] + 1])
    if op == "log_abs_z":
        r = math.hypot(xy[2 * e["j"]], xy[2 * e["j"] + 1])
        return -math.inf if r == 0.0 else math.log(r)
    if op == "rho":
        total = 0.0
        for j in range(len(xy) // 2):
            r = math.hypot(xy[2 * j], xy[2 * j + 1])
            total += math.inf if r == 0.0 else math.log(r) ** 2
        return total
    if op == "norm_sq":
        return sum(v * v for v in xy)
    if op == "sum":
        return sum(_ref(t, xy) for t in e["terms"])
    if op == "prod":
        return math.prod(_ref(f, xy) for f in e["factors"])
    if op == "pow":
        return _ref(e["base"], xy) ** e["k"]
    if op == "lt":
        return _ref(e["lhs"], xy) < _ref(e["rhs"], xy)
    if op == "and":
        return all(_ref(i, xy) for i in e["items"])
    if op == "or":
        return any(_ref(i, xy) for i in e["items"])
    if op == "not":
        return not _ref(e["item"], xy)
    raise AssertionError(f"unknown op {op}")


def _regions():
    out = []
    for n, eps, delta in ((2, 1.0, 0.45), (3, 1.5, 0.45)):
        up = up_ball(n, eps, 0.5)
        out += [
            omega_minus_thickened_k(n, eps, delta, up),
            omega_minus_shell(n, eps, delta),
            omega_prime_region(n, eps, up),
        ]
    for cover in (dim2_cover(4.0), tube_cover_dim2(1.0)):
        out += [cover.ambient] + [reg for _, reg in cover.sets]
    return out


def _points(region: Region, rng: np.random.Generator) -> np.ndarray:
    """Random points of the bbox, then copies with one or every z_j set to 0,
    where rho = +inf: outside every {rho < c}, inside every {c < rho}."""
    d = region.dim2n
    pts = rng.uniform(region.bbox[:, 0], region.bbox[:, 1], size=(400, d))
    blocks = [pts]
    for j in range(d // 2):
        zj = pts[:100].copy()
        zj[:, 2 * j : 2 * j + 2] = 0.0
        blocks.append(zj)
    blocks.append(np.zeros((1, d)))
    return np.concatenate(blocks)


@pytest.mark.parametrize("region", _regions(), ids=lambda r: f"{r.name}-{r.dim2n}")
def test_mask_matches_scalar_reference(region):
    pts = _points(region, np.random.default_rng(region.dim2n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = region.mask(pts)
    tree = region.constraint.to_jsonable()
    want = np.array([_ref(tree, row.tolist()) for row in pts])
    assert got.dtype == bool
    assert np.array_equal(got, want)
    assert got.any() and not got.all()


def _nx_components(mask: np.ndarray) -> list[set]:
    g = nx.Graph()
    nodes = [tuple(i) for i in np.argwhere(mask)]
    g.add_nodes_from(nodes)
    for node in nodes:
        for axis in range(mask.ndim):
            nb = list(node)
            nb[axis] += 1
            nb = tuple(nb)
            if nb[axis] < mask.shape[axis] and mask[nb]:
                g.add_edge(node, nb)
    return list(nx.connected_components(g))


def _two_balls() -> Region:
    a = ball_region((-1.0, 0.0, 0.0, 0.0), 0.6)
    b = ball_region((1.0, 0.0, 0.0, 0.5), 0.6)
    bbox = np.array([[-2.0, 2.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]])
    return Region("two-balls", COr((a.constraint, b.constraint)), bbox)


@pytest.mark.parametrize(
    "region, step, expected",
    [
        (_two_balls(), 0.2, 2),
        (omega_minus_shell(1, 0.5, 0.2), 0.1, 3),
        (with_bbox(omega_minus_shell(2, 1.0, 0.7), 3.0), 0.35, 2),
        # too coarse for the shell: the lattice splits it into many pieces
        (with_bbox(omega_minus_shell(2, 1.5, 0.9), 2.5), 0.3, 14),
    ],
    ids=["two-balls", "shell-n1", "shell-n2", "shell-n2-fragmented"],
)
def test_grid_components_match_networkx(region, step, expected):
    lab = grid_components(region, step)
    lo = region.bbox[:, 0]
    nodes = np.indices(lab.shape).reshape(len(lab.shape), -1).T
    in_region = region.mask(lo + step * nodes.astype(float)).reshape(lab.shape)
    assert np.array_equal(lab.mask, in_region)

    comps = _nx_components(in_region)
    assert lab.n_components == len(comps) == expected
    seen = set()
    for comp in comps:
        ids = {int(lab.labels[node]) for node in comp}
        assert len(ids) == 1
        (cid,) = ids
        assert cid not in seen
        seen.add(cid)
        first = min(comp, key=lambda node: np.ravel_multi_index(node, lab.shape))
        assert lab.representatives[cid - 1].xy == lab.node_point(first).xy
