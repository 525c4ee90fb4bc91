"""Region masks and lattice components against independent references.

`Region.mask` is checked against a point-by-point evaluation of the
constraint's JSON form with `math.hypot` and `math.log`, and against the
numpy batch evaluator it replaced (`numpy_masks`) on drawn batches of every
region the pipelines build; `grid_components` against the connected
components networkx finds on the in-region lattice graph.
"""

import math
import warnings

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechcert import covers, geometry
from cechcert.covers import (
    dim2_cover,
    dr_region,
    omega_minus_shell,
    omega_prime_region,
    omega_region,
    tube_cover_dim2,
    up_ball,
)
from cechcert.geometry import CAnd, COr, CPoint, Region, ball_region, grid_components, masks
from cechcert.nerve import _set_members

import numpy_masks


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
        shell = omega_minus_shell(n, eps, delta)
        # Omega minus the shell with the hole at p: (Omega\shell) | (Omega & U_p)
        no_k = COr((shell.constraint, CAnd((omega_region(n, eps).constraint, up.constraint))))
        out += [
            Region("Omega\\K_delta", no_k, shell.bbox),
            shell,
            omega_prime_region(n, eps, up),
        ]
    for cover in (dim2_cover(4.0), tube_cover_dim2(1.0)):
        out += [cover.ambient] + [reg for _, reg in cover.sets]
    return out


def _points(region: Region, rng: np.random.Generator) -> np.ndarray:
    """Random points of the bbox, then copies with one or every z_j set to 0,
    where rho = +inf: outside every {rho < c}, inside every {c < rho}."""
    d = region.dim2n
    lo, hi = np.asarray(region.bbox).T
    pts = rng.uniform(lo, hi, size=(400, d))
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
    want = [_ref(tree, row.tolist()) for row in pts]
    assert all(type(v) is bool for v in got)
    assert got == want
    assert any(got) and not all(got)


@st.composite
def _slab_batches(draw):
    """An r and a batch of points of C^2 that includes points on the slab's
    faces |x_j| = r, on the overlap's faces y2 = +-y1 and their 2 pi shifts."""
    r = draw(st.one_of(st.floats(0.5, 20.0), st.sampled_from([math.pi, math.nextafter(math.pi, 4)])))
    real = st.floats(-25.0, 25.0, allow_nan=False)
    x = st.one_of(real, st.sampled_from([r, -r, r - 2 * math.pi, -math.pi]))
    rows = []
    for _ in range(draw(st.integers(1, 40))):
        y1 = draw(st.floats(-1.5, 1.5))
        y2 = draw(st.one_of(st.floats(-1.5, 1.5), st.sampled_from([y1, -y1])))
        rows.append((draw(x), y1, draw(x), y2))
    return r, np.array(rows)


@settings(max_examples=150, deadline=None)
@given(_slab_batches())
def test_slab_mask_matches_contains_row_by_row(batch):
    # the slab pipeline's periodicity check decides all its shifted points
    # with one mask and reports the same pairs as one contains call per point
    r, pts = batch
    for region in (dr_region(r), dim2_cover(r).intersection((0, 1))):
        want = [region.contains(CPoint(tuple(row))) for row in pts.tolist()]
        assert region.mask(pts) == want


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


def _centered(region: Region, half_width: float) -> Region:
    """The same constraint scanned on the box [-half_width, half_width]^{2n}."""
    return Region(region.name, region.constraint, np.array([[-half_width, half_width]] * region.dim2n))


@pytest.mark.parametrize(
    "region, step, expected",
    [
        (_two_balls(), 0.2, 2),
        (omega_minus_shell(1, 0.5, 0.2), 0.1, 3),
        (_centered(omega_minus_shell(2, 1.0, 0.7), 3.0), 0.35, 2),
        # too coarse for the shell: the lattice splits it into many pieces
        (_centered(omega_minus_shell(2, 1.5, 0.9), 2.5), 0.3, 14),
    ],
    ids=["two-balls", "shell-n1", "shell-n2", "shell-n2-fragmented"],
)
def test_grid_components_match_networkx(region, step, expected):
    lab = grid_components(region, step)
    lo = np.asarray(region.bbox)[:, 0]
    nodes = np.indices(lab.shape).reshape(len(lab.shape), -1).T
    in_region = np.reshape(region.mask(lo + step * nodes.astype(float)), lab.shape)
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
        assert lab.representatives[cid - 1].xy == tuple(lo + step * np.asarray(first, dtype=float))


def _pipeline_regions() -> list[Region]:
    """The regions dim2, dimn (n = 2, 3) and the rank table build: covers,
    their ambients, the intersections nerves mask, and the sets of the
    connectivity and gluing steps."""
    slab, chart, tube = dim2_cover(4.0), covers.exp_chart(), tube_cover_dim2(1.0)
    pre = [reg.intersect(chart.domain) for _, reg in slab.sets]
    out = [slab.ambient, slab.intersection((0, 1)), chart.domain, *pre, pre[0].intersect(pre[1])]
    out += [tube.ambient, tube.intersection((0, 1))] + [r for c in (slab, tube) for _, r in c.sets]
    for n in (2, 3):
        eps = n / 2.0
        up = up_ball(n, eps, 0.5)
        sectors, pieces = covers.torus_cover(n, eps), covers.torus_cover(n, eps, 2)
        omega_prime = omega_prime_region(n, eps, up)
        out += [sectors.ambient, sectors.intersection(tuple(range(2**n)))]
        out += [r for c in (sectors, pieces) for _, r in c.sets]
        out += [up, omega_region(n, eps), omega_prime, omega_minus_shell(n, eps, 0.3)]
        out += [pieces.region(0).intersect(omega_prime), covers.g_eps_region(n, eps).intersect(up)]
    return out


# coordinates where the trees overflow, underflow, meet the axes or read NaN
_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 1e200, 5e-324, -5e-324]


@st.composite
def _batches(draw, dim2n: int, bbox):
    """Rows of 2n coordinates near the bbox or special, some with one or
    more z_j = 0 (log|z_j| = -inf, rho = +inf)."""
    coords = [st.one_of(st.floats(lo - 1.0, hi + 1.0), st.sampled_from(_SPECIAL + [lo, hi])) for lo, hi in bbox]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(c) for c in coords]
        for j in draw(st.sets(st.integers(0, dim2n // 2 - 1))):
            row[2 * j] = row[2 * j + 1] = 0.0
        rows.append(row)
    return rows


@pytest.mark.parametrize("region", _pipeline_regions(), ids=lambda r: f"{r.name}-{r.dim2n}")
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mask_matches_the_numpy_oracle(region, data):
    pts = data.draw(_batches(region.dim2n, region.bbox))
    got = region.mask(pts)
    assert got == numpy_masks.mask(region, pts)
    assert [region.contains(CPoint(tuple(p))) for p in pts if all(map(math.isfinite, p))] == [
        v for v, p in zip(got, pts) if all(map(math.isfinite, p))
    ]


def test_features_have_numpys_bits_at_special_coordinates():
    # every pair of special coordinates as z_1, beside an ordinary z_2: hypot
    # overflowing to inf, log 0 = -inf, NaN, subnormal moduli
    special = _SPECIAL + [1.7e308]  # |1.7e308 + 1.7e308 i| is past the largest float
    pts = [(x, y, 0.3, -2.5) for x in special for y in special]
    got = np.array(geometry._features(pts, 15, 4))
    A = np.asarray(pts)
    rho, nsq = np.zeros(len(pts)), np.zeros(len(pts))
    with np.errstate(all="ignore"):
        moduli = np.hypot(A[:, 0::2], A[:, 1::2])
        logs = np.log(moduli)
        for j in range(2):  # in order from 0, as `numpy_masks` sums them
            rho += logs[:, j] * logs[:, j]
        for i in range(4):
            nsq += A[:, i] * A[:, i]
    want = np.column_stack([rho, nsq, A, moduli, logs])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got[:, 2:]), np.signbit(want[:, 2:]))


def _glued_cover(n: int):
    """The union of dimn's four sector sets with Omega', as `glue` builds it."""
    eps = n / 2.0
    pieces = covers.torus_cover(n, eps, 2)
    omega_prime = omega_prime_region(n, eps, up_ball(n, eps, 0.5))
    cover = covers.Cover(pieces.ambient, pieces.sets + [("Omega_prime", omega_prime)])
    return cover, covers.glued_resolution(n, eps, 0.5, 3, 2)


_COVERS = {
    "slab": (dim2_cover(4.0), covers.dim2_resolution()),
    "tube": (tube_cover_dim2(1.0), covers.tube_resolution_dim2()),
    "sectors-3": (covers.torus_cover(3, 1.5), covers.torus_resolution(3, 1.5, 4)),
    "glued-2": _glued_cover(2),
    "glued-3": _glued_cover(3),
}


@pytest.mark.parametrize("name", sorted(_COVERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_batch_of_many_regions_matches_each_region_alone(name, data):
    # masks computes each point's features once for sets that read different
    # ones (the glued cover mixes |z|^2, rho and |z_j|)
    regions = [reg for _, reg in _COVERS[name][0].sets]
    pts = data.draw(_batches(regions[0].dim2n, regions[0].bbox))
    assert masks(regions, pts) == [numpy_masks.mask(r, pts) for r in regions]


@pytest.mark.parametrize("name", sorted(_COVERS))
def test_set_members_match_each_set_alone(name):
    cover, res = _COVERS[name]
    members = _set_members(cover, res)
    assert members and any(len(sets) > 1 for sets in members.values())
    for rep, sets in members.items():
        alone = [numpy_masks.mask(reg, [rep.xy])[0] for _, reg in cover.sets]
        assert sets == {i for i, inside in enumerate(alone) if inside}
