"""Concrete domains, covers, and bundle data used by the certificates.

Two families live here.  The first is the four-real-dimensional slab D_r with
the totally real plane K = {y1 = y2 = 0} removed, its two-set cover whose
overlap has two components, and the exponential chart onto a log-modulus tube.
The second is the tube G_eps around the unit torus in C^n, its product-arc
sector covers (sectored in z_1..z_n for the rank table, in z_1, z_2 for the
clutching line bundle), the ball Omega, the outside-plus-ball set Omega', and
Omega minus a shell around the tube's boundary, whose two pieces the
connectivity check tells apart.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    CAnd,
    CLt,
    COr,
    CPoint,
    Region,
    SAbsZ,
    SConst,
    SLogAbsZ,
    SNormSq,
    SPow,
    SProd,
    SRho,
    SSum,
    SX,
    SY,
    ball_region,
    up_radius,
)
from .hexpr import ChartMap, Const, Coord, Exp, IntPower, MatExpr, Product
from .nerve import Y_NONZERO, AnalyticPatch, Cover, Resolution
from .bundles import BundleData
from .nerve import IntCochain, ResolvedNerve

__all__ = [
    "dr_region",
    "dim2_cover",
    "dim2_resolution",
    "dim2_generator_cochain",
    "exp_chart",
    "g_eps_region",
    "tube_cover_dim2",
    "tube_resolution_dim2",
    "tube_bundle_dim2",
    "sector_letters",
    "torus_cover",
    "torus_resolution",
    "lnt_bundle",
    "omega_radius",
    "omega_region",
    "p_point",
    "up_ball",
    "omega_prime_region",
    "outer_rep",
    "mixed_rep",
    "glued_resolution",
    "one_set_cover",
    "omega_minus_shell",
]


def _neg(e):
    return SProd((SConst(-1.0), e))


def _sq(e):
    return SPow(e, 2)


# ---------------------------------------------------------------------------
# The slab D_r and its two-set cover


def dr_region(r: float, name: str = "D_r") -> Region:
    """{|x1| < r, |x2| < r, y1^2 + y2^2 < 1} in C^2."""
    constraint = CAnd(
        (
            CLt(_sq(SX(0)), SConst(r * r)),
            CLt(_sq(SX(1)), SConst(r * r)),
            CLt(SSum((_sq(SY(0)), _sq(SY(1)))), SConst(1.0)),
        )
    )
    return Region(name, constraint, [(-r, r), (-1.0, 1.0), (-r, r), (-1.0, 1.0)])


def dim2_cover(r: float) -> Cover:
    """Two-set cover of D_r minus the plane {y1 = y2 = 0}.

    U1 = {y2 < |y1|} and U2 = {y2 > -|y1|}; neither meets the plane, their
    union misses exactly it, and their overlap has the two components
    {y1 < -|y2|} and {y1 > |y2|}.
    """
    dr = dr_region(r)
    ambient = Region("D_r\\K", CAnd((dr.constraint, Y_NONZERO)), dr.bbox)
    u1 = Region(
        "U1",
        CAnd((dr.constraint, COr((CLt(SY(1), SY(0)), CLt(SY(1), _neg(SY(0))))))),
        dr.bbox,
    )
    u2 = Region(
        "U2",
        CAnd((dr.constraint, COr((CLt(SY(0), SY(1)), CLt(_neg(SY(0)), SY(1)))))),
        dr.bbox,
    )
    return Cover(ambient, [("U1", u1), ("U2", u2)])


def _sign_of_y1(p: CPoint) -> int:
    return 0 if p.xy[1] < 0 else 1


def dim2_resolution() -> Resolution:
    """Analytic component data for the D_r cover: connected sets, and the
    overlap split by the sign of y1."""
    patches = {
        (0,): AnalyticPatch([CPoint((0.0, 0.0, 0.0, -0.5))], lambda p: 0),
        (1,): AnalyticPatch([CPoint((0.0, 0.0, 0.0, 0.5))], lambda p: 0),
        (0, 1): AnalyticPatch(
            [CPoint((0.0, -0.5, 0.0, 0.0)), CPoint((0.0, 0.5, 0.0, 0.0))], _sign_of_y1
        ),
    }
    return Resolution(patches=patches)


def dim2_generator_cochain() -> IntCochain:
    """The degree-1 cocycle that is 0 on the y1 < 0 overlap component and 1 on
    the other; its class generates H^1 of the slab-minus-plane nerve."""
    return IntCochain(1, "Z", {((0, 1), 1): 1})


def exp_chart() -> ChartMap:
    """(z1, z2) -> (e^{i z1}, e^{i z2}), injective on {|x_j| < pi}."""
    domain = dr_region(math.pi, name="D_pi")
    forward = tuple(Exp(Product((Const(1j), Coord(j)))) for j in range(2))
    return ChartMap("exp(i.)", forward, domain)


# ---------------------------------------------------------------------------
# The tube G_eps and the image of the dim-2 cover


def g_eps_region(n: int, eps: float, name: Optional[str] = None) -> Region:
    """{sum_j (log|z_j|)^2 < eps} in C^n."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        m = math.exp(math.sqrt(eps))
    except OverflowError:
        raise ValueError(
            f"epsilon = {eps:g}: the tube's bound e^sqrt(epsilon) on |z_j| overflows a float"
        ) from None
    return Region(name or f"G_{eps:g}", CLt(SRho(), SConst(eps)), [(-m, m)] * (2 * n))


def _eta(j: int):
    # -log|w_j|, the image of the slab coordinate y_j under the chart
    return _neg(SLogAbsZ(j))


def tube_cover_dim2(eps: float = 1.0) -> Cover:
    """Images of U1, U2 in the tube: {eta_2 < |eta_1|} and {eta_2 > -|eta_1|}
    with eta_j = -log|w_j|, covering the tube minus the unit torus."""
    g = g_eps_region(2, eps)
    ambient = Region(
        "G\\T", CAnd((g.constraint, CLt(SConst(0.0), SRho()))), g.bbox
    )
    v1 = Region(
        "phiU1",
        CAnd((g.constraint, COr((CLt(_eta(1), _eta(0)), CLt(_eta(1), _neg(_eta(0))))))),
        g.bbox,
    )
    v2 = Region(
        "phiU2",
        CAnd((g.constraint, COr((CLt(_eta(0), _eta(1)), CLt(_neg(_eta(0)), _eta(1)))))),
        g.bbox,
    )
    return Cover(ambient, [("phiU1", v1), ("phiU2", v2)])


def _tube_edge_label(p: CPoint) -> int:
    # component 0 is the image of {y1 < 0}, i.e. |w1| > 1
    return 0 if math.hypot(p.xy[0], p.xy[1]) > 1.0 else 1


def tube_resolution_dim2() -> Resolution:
    e_half = math.exp(0.5)
    patches = {
        (0,): AnalyticPatch([CPoint((1.0, 0.0, e_half, 0.0))], lambda p: 0),
        (1,): AnalyticPatch([CPoint((1.0, 0.0, math.exp(-0.5), 0.0))], lambda p: 0),
        (0, 1): AnalyticPatch(
            [CPoint((e_half, 0.0, 1.0, 0.0)), CPoint((math.exp(-0.5), 0.0, 1.0, 0.0))],
            _tube_edge_label,
        ),
    }
    return Resolution(patches=patches)


def tube_bundle_dim2(cover: Cover, nerve: ResolvedNerve) -> BundleData:
    """The line bundle on the tube cover: transition 1 on the |w1| > 1 overlap
    component and -1 on the other."""
    transitions = {
        (0, 1): {0: MatExpr(((Const(1),),)), 1: MatExpr(((Const(-1),),))}
    }
    return BundleData(cover, nerve, 1, transitions)


# ---------------------------------------------------------------------------
# Product-arc sector covers of G_eps


def sector_letters(d: int) -> list[tuple[str, ...]]:
    """All 2^d sector labels, 'A' and 'B' per sectored coordinate, A-first order."""
    return list(itertools.product("AB", repeat=d))


def _sector_constraint(letters: tuple[str, ...], eps: float) -> CAnd:
    items = [CLt(SRho(), SConst(eps))]
    for j, letter in enumerate(letters):
        if letter == "A":
            # arg z_j in (-2pi/3, 2pi/3): x_j > -|z_j|/2
            items.append(CLt(SProd((SConst(-0.5), SAbsZ(j))), SX(j)))
        else:
            # arg z_j in (pi/3, 5pi/3): x_j < |z_j|/2
            items.append(CLt(SX(j), SProd((SConst(0.5), SAbsZ(j)))))
    return CAnd(tuple(items))


def torus_cover(n: int, eps: float, d: Optional[int] = None) -> Cover:
    """2^d sector sets covering G_eps in C^n: per coordinate z_1..z_d (default
    d = n), either the wide arc around arg 0 (A) or the wide arc around arg pi
    (B), fattened radially; at d = 2 the n = 2 sets' constraint trees."""
    g = g_eps_region(n, eps)
    sets = []
    for letters in sector_letters(n if d is None else d):
        name = "S_" + "".join(letters)
        sets.append((name, Region(name, _sector_constraint(letters, eps), g.bbox)))
    return Cover(g, sets)


@dataclass
class SectorPatch(AnalyticPatch):
    """Components of a sector intersection, one per sign word over `diff`,
    the sectored coordinates where both letters occur: bit 0 when Im z_j > 0,
    most significant first.  A sector facet's coordinates lie in `diff`, so
    the face map onto it projects the words and locates nothing."""

    diff: tuple[int, ...] = ()

    def face_map(self, facet: AnalyticPatch) -> Sequence[int]:
        if isinstance(facet, SectorPatch):
            table = _sign_projection(self.diff, facet.diff)
            if table is not None:
                return table
        return super().face_map(facet)


@functools.lru_cache(maxsize=None)
def _sign_projection(ds: tuple[int, ...], df: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The sign word on df of each sign word on ds, in word order; None when
    df is not inside ds."""
    if not set(df) <= set(ds):
        return None
    shifts = [len(ds) - 1 - ds.index(j) for j in df]
    out = []
    for word in range(2 ** len(ds)):
        c = 0
        for sh in shifts:
            c = 2 * c + (word >> sh & 1)
        out.append(c)
    return tuple(out)


def _torus_patch(
    tup: tuple[int, ...],
    letters: list[tuple[str, ...]],
    n: int,
    points: Optional[dict[tuple[float, ...], CPoint]] = None,
) -> SectorPatch:
    """Components of a sector intersection: one per up/down choice at every
    sectored coordinate where both letters occur (the two short arcs of A
    meet B).  Representatives put z_j = 1 past the sectored coordinates.
    `points` caches them by their arguments, so patches built with one dict
    share each distinct point."""
    points = {} if points is None else points
    d = len(letters[0])
    diff = tuple(j for j in range(d) if len({letters[i][j] for i in tup}) == 2)
    args = [0.0 if c == "A" else math.pi for c in letters[tup[0]]] + [0.0] * (n - d)
    reps = []
    for ups in itertools.product((math.pi / 2, -math.pi / 2), repeat=len(diff)):
        for j, a in zip(diff, ups):
            args[j] = a
        key = tuple(args)
        if key not in points:
            points[key] = CPoint.from_complex([complex(math.cos(a), math.sin(a)) for a in args])
        reps.append(points[key])

    def locate(p: CPoint) -> int:
        out = 0
        for j in diff:
            out = 2 * out + (0 if p.xy[2 * j + 1] > 0 else 1)
        return out

    return SectorPatch(reps, locate, diff)


def torus_resolution(n: int, eps: float, k_max: int, d: Optional[int] = None) -> Resolution:
    """Analytic component data for `torus_cover(n, eps, d)` up to k_max + 1
    sets.  A patch depends only on which letters each coordinate carries
    (A, B or both), so the 3^d distinct patches are shared, and they share
    their 4^d distinct representatives."""
    letters = sector_letters(n if d is None else d)
    patches, points, shared = {}, {}, {}
    for size in range(1, min(k_max + 2, len(letters) + 1)):
        for tup in itertools.combinations(range(len(letters)), size):
            # set i carries B at coordinate j exactly when bit d - 1 - j of i
            # is 1: `hi` marks where some set carries B, `lo` where all do
            hi = lo = tup[0]
            for i in tup[1:]:
                hi |= i
                lo &= i
            patch = shared.get((hi, lo))
            if patch is None:
                patch = shared[(hi, lo)] = _torus_patch(tup, letters, n, points)
            patches[tup] = patch
    return Resolution(patches=patches)


def lnt_bundle(cover: Cover, nerve: ResolvedNerve) -> BundleData:
    """Clutching line bundle on a sector cover (`torus_cover`).

    Across the two z_1 arcs the transition is 1 on the upper-arc components
    and z_2^{+-1} on the lower-arc ones (+1 going A to B); all other
    transitions are 1.  The triple products telescope, so the cocycle
    identity is exact.  Sectored in z_1, z_2, it is pi^* of the n = 2 bundle.
    """
    letters = sector_letters(len(cover.sets).bit_length() - 1)
    transitions = {}
    for edge in nerve.simplices_of_dim(1):
        i, j = edge
        a, b = letters[i][0], letters[j][0]
        if a == b:
            continue
        sign = 1 if (a, b) == ("A", "B") else -1
        cases = {}
        for ci, rep in enumerate(nerve.components(edge)):
            lower = rep.xy[1] < 0  # imag part of z_1 at the representative
            if lower:
                e = Coord(1) if sign == 1 else IntPower(Coord(1), -1)
            else:
                e = Const(1)
            cases[ci] = MatExpr(((e,),))
        transitions[edge] = cases
    return BundleData(cover, nerve, 1, transitions)


# ---------------------------------------------------------------------------
# Omega, U_p, Omega' and the glued-cover resolution


def omega_radius(n: int, eps: float) -> float:
    """Radius of the ball Omega: twice the tube's bound sqrt(n) e^{sqrt(eps)}."""
    return 2.0 * math.sqrt(n) * math.exp(math.sqrt(eps))


def omega_region(n: int, eps: float) -> Region:
    radius = omega_radius(n, eps)
    return Region(
        "Omega",
        CLt(SNormSq(), SConst(radius * radius)),
        [(-radius, radius)] * (2 * n),
    )


def p_point(n: int, eps: float) -> CPoint:
    m = math.exp(math.sqrt(eps / n))
    return CPoint.from_complex([m] * n)


def up_ball(n: int, eps: float, safety: float) -> Region:
    p = p_point(n, eps)
    return ball_region(p.xy, up_radius(n, eps, safety), name="U_p")


def omega_prime_region(n: int, eps: float, up: Region) -> Region:
    """(Omega minus the closed tube) union U_p."""
    omega = omega_region(n, eps)
    constraint = COr(
        (CAnd((omega.constraint, CLt(SConst(eps), SRho()))), up.constraint)
    )
    return Region("Omega_prime", constraint, omega.bbox)


def outer_rep(n: int, eps: float) -> CPoint:
    """A point of Omega strictly outside the closed tube."""
    return CPoint.from_complex([1.5 * math.exp(math.sqrt(eps))] * n)


def mixed_rep(n: int, eps: float, safety: float) -> CPoint:
    """A point of the all-A sector inside U_p and inside the tube: p pulled
    radially toward the torus by a fraction of the U_p radius."""
    m = math.exp(math.sqrt(eps / n))
    kappa = 0.5 * up_radius(n, eps, safety) / (m * math.sqrt(n))
    return CPoint.from_complex([m * (1.0 - kappa)] * n)


def glued_resolution(
    n: int, eps: float, safety: float, k_max: int, d: Optional[int] = None
) -> Resolution:
    """Resolution for the union of `torus_cover(n, eps, d)` with the one-set
    cover of Omega': the sector patches, Omega' as a single declared component,
    and the single mixed overlap (all-A sector meets U_p inside the tube)."""
    res = torus_resolution(n, eps, k_max, d)
    omega_prime_idx = 2 ** (n if d is None else d)
    res.patches[(omega_prime_idx,)] = AnalyticPatch([outer_rep(n, eps)], lambda p: 0)
    res.patches[(0, omega_prime_idx)] = AnalyticPatch([mixed_rep(n, eps, safety)], lambda p: 0)
    return res


def one_set_cover(region: Region, rep: CPoint) -> tuple[Cover, Resolution]:
    cover = Cover(region, [(region.name, region)])
    res = Resolution(patches={(0,): AnalyticPatch([rep], lambda p: 0)})
    return cover, res


# ---------------------------------------------------------------------------
# The connectivity check


def omega_minus_shell(n: int, eps: float, delta: float) -> Region:
    """Omega with the closed shell eps - delta <= rho <= eps + delta removed;
    two pieces (inside the tube, outside it)."""
    omega = omega_region(n, eps)
    constraint = CAnd(
        (
            omega.constraint,
            COr((CLt(SRho(), SConst(eps - delta)), CLt(SConst(eps + delta), SRho()))),
        )
    )
    return Region("Omega\\shell", constraint, omega.bbox)
