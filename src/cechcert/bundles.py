"""Vector bundles presented by transition matrices over a resolved nerve.

A bundle stores one matrix expression per ordered set pair (i, j) with i < j
and overlap component, or one for every component under the key None; the
stored matrix carries frame i to frame j, and the reverse transition is the
numerical inverse.  On top of this sit the cocycle validator, the gluing
construction, restriction to a subset of the cover sets and pullback, the
integer-to-units exponential push, first-Chern-class extraction, and the
locally-constant trivialization test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BranchError,
    ChartError,
    DomainError,
    GlueError,
    NotACocycleError,
    ResolutionError,
    ShapeError,
)
from .geometry import COr, CPoint, Region
from .hexpr import (
    ChartMap,
    Const,
    MatExpr,
    MonLog,
    mat_identity,
    mon_log,
    subst,
)
from .nerve import (
    CoboundaryVerdict,
    Cover,
    IntCochain,
    Resolution,
    ResolvedNerve,
    build_nerve,
    coboundary,
    is_coboundary,
)

__all__ = [
    "BundleData",
    "BundleIso",
    "CocycleReport",
    "ChernCocycle",
    "FlatClassResult",
    "trivial_bundle",
    "transition_at",
    "validate_cocycle",
    "validate_iso",
    "glue",
    "restrict_to_sets",
    "pullback",
    "exp_sequence_push",
    "chern_cocycle",
    "flat_class_test",
]

Edge = tuple[int, int]
TransTable = dict[Edge, dict[Optional[int], MatExpr]]

# A transition or iso matrix with |det| at or below this is treated as singular.
_DET_FLOOR = 1e-12


def _on_component(bycomp: dict[Optional[int], MatExpr], comp: int) -> MatExpr:
    """The matrix of a per-component table on one component; the key None
    holds the matrix of every component the table does not name."""
    return bycomp[comp] if comp in bycomp else bycomp[None]


@dataclass
class BundleData:
    """A cover with its resolved nerve and per-pair transition matrices.

    transitions[(i, j)][comp] with i < j carries frame i to frame j on the
    given component of the overlap (key None: the matrix of every component
    not named).  Identity self-transitions are implicit and never stored.
    """

    cover: Cover
    nerve: ResolvedNerve
    rank: int
    transitions: TransTable

    def __post_init__(self) -> None:
        for (i, j), bycomp in self.transitions.items():
            if not i < j:
                raise ValueError("transition keys must be ordered pairs (i, j), i < j")
            if (i, j) not in self.nerve.simplices:
                raise ValueError(f"transition on empty overlap {(i, j)}")
            comps = set(range(len(self.nerve.components((i, j)))))
            if set(bycomp) - comps - {None}:
                raise ValueError(f"transition on {(i, j)} names a component the overlap lacks")
            if None not in bycomp and comps - set(bycomp):
                raise ValueError(f"transition on {(i, j)} misses a component and has no None key")
            for m in bycomp.values():
                if m.r != self.rank:
                    raise ValueError("transition matrix size does not match bundle rank")

    def edge_matrix(self, i: int, j: int, comp: int) -> MatExpr:
        """Stored matrix for the ordered edge (i < j) on one component."""
        bycomp = self.transitions.get((i, j))
        if bycomp is None:
            return mat_identity(self.rank)
        return _on_component(bycomp, comp)

    def to_jsonable(self):
        return {
            "rank": self.rank,
            "cover": self.cover.to_jsonable(),
            "nerve": self.nerve.to_jsonable(),
            "transitions": [
                {
                    "pair": list(pair),
                    "components": [
                        {"component": ci, "matrix": m.to_jsonable()}
                        for ci, m in sorted(
                            bycomp.items(), key=lambda kv: (kv[0] is None, kv[0])
                        )
                    ],
                }
                for pair, bycomp in sorted(self.transitions.items())
            ],
        }


def trivial_bundle(cover: Cover, nerve: ResolvedNerve, rank: int = 1) -> BundleData:
    return BundleData(cover, nerve, rank, {})


def transition_at(
    b: BundleData, dst: int, src: int, z: CPoint, comp: int
) -> np.ndarray:
    """Numeric transition carrying frame src to frame dst at a point.

    comp indexes the components of the overlap simplex (min, max)."""
    if dst == src:
        return np.eye(b.rank, dtype=complex)
    i, j = min(src, dst), max(src, dst)
    M = b.edge_matrix(i, j, comp).at(z)
    return M if (src, dst) == (i, j) else np.linalg.inv(M)


# ---------------------------------------------------------------------------
# Sampling near representatives


def _samples_in_component(
    nerve: ResolvedNerve,
    simplex: tuple[int, ...],
    comp: int,
    count: int,
    rng: np.random.Generator,
) -> list[CPoint]:
    """The component representative plus nearby in-component points.

    Points are drawn from shrinking balls around the representative and kept
    when region membership and the component locator both agree; sampling is
    best-effort and always includes the representative itself.
    """
    rep = nerve.components(simplex)[comp]
    region = nerve.cover.intersection(simplex)
    pts = [rep]
    dims = len(rep.xy)
    scale = 0.05 * float(np.max(region.bbox[:, 1] - region.bbox[:, 0]))
    for radius in (scale, scale / 4, scale / 16):
        if len(pts) > count:
            break
        cand = np.asarray(rep.xy) + rng.uniform(-radius, radius, size=(4 * count, dims))
        good = cand[region.mask(cand)]
        for row in good:
            p = CPoint(tuple(row))
            try:
                if nerve.locate(simplex, p) == comp:
                    pts.append(p)
            except (ResolutionError, DomainError):
                continue
            if len(pts) > count:
                break
    return pts[: count + 1]


# ---------------------------------------------------------------------------
# Cocycle validation


@dataclass
class CocycleReport:
    max_residual: float
    worst_location: str
    points_checked: int
    det_floor_ok: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.det_floor_ok and self.max_residual < self.tol

    def to_jsonable(self):
        return {
            "max_residual": self.max_residual,
            "worst_location": self.worst_location,
            "points_checked": self.points_checked,
            "det_floor_ok": self.det_floor_ok,
            "tol": self.tol,
            "passed": self.passed,
        }


def validate_cocycle(
    b: BundleData,
    samples_per_simplex: int = 12,
    tol: float = 1e-9,
    seed: int = 0,
) -> CocycleReport:
    """Check inverse-pair consistency on edges and the triple-product identity
    f(k<-j) f(j<-i) = f(k<-i) on every (triple overlap, component), at the
    representatives and sampled nearby points.  A transition with determinant
    at or below `_DET_FLOOR` fails the check, and the report then names the
    first such point."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    where = ""
    npts = 0
    det_ok = True
    for edge in b.nerve.simplices_of_dim(1):
        i, j = edge
        for ci in range(len(b.nerve.components(edge))):
            for z in _samples_in_component(b.nerve, edge, ci, samples_per_simplex, rng):
                M = b.edge_matrix(i, j, ci).at(z)
                npts += 1
                if abs(np.linalg.det(M)) <= _DET_FLOOR:
                    if det_ok:
                        det_ok = False
                        where = f"edge {edge} comp {ci}: determinant below floor"
                    continue
                res = float(np.max(np.abs(M @ np.linalg.inv(M) - np.eye(b.rank))))
                if res > worst:
                    worst = res
                    if det_ok:
                        where = f"edge {edge} comp {ci}"
    for tri in b.nerve.simplices_of_dim(2):
        i, j, k = tri
        for ci in range(len(b.nerve.components(tri))):
            c_jk = b.nerve.face_component(tri, ci, 0)
            c_ik = b.nerve.face_component(tri, ci, 1)
            c_ij = b.nerve.face_component(tri, ci, 2)
            for z in _samples_in_component(b.nerve, tri, ci, samples_per_simplex, rng):
                f_kj = transition_at(b, k, j, z, c_jk)
                f_ji = transition_at(b, j, i, z, c_ij)
                f_ki = transition_at(b, k, i, z, c_ik)
                npts += 1
                res = float(np.max(np.abs(f_kj @ f_ji - f_ki)))
                if res > worst:
                    worst = res
                    if det_ok:
                        where = f"triple {tri} comp {ci}"
    return CocycleReport(worst, where, npts, det_ok, tol)


# ---------------------------------------------------------------------------
# Gluing


@dataclass
class BundleIso:
    """An isomorphism over the overlap of two covers, given per mixed pair:
    h[(i, j)][comp] carries frame U_i of the first bundle to frame V_j of the
    second, on the component of U_i intersect V_j."""

    h: dict[Edge, dict[Optional[int], MatExpr]]

    def matrix(self, i: int, j: int, comp: int, rank: int) -> MatExpr:
        bycomp = self.h.get((i, j))
        if bycomp is None:
            return mat_identity(rank)
        return _on_component(bycomp, comp)


def _union_cover(bU: BundleData, bV: BundleData) -> Cover:
    names_u = set(bU.cover.names)
    if names_u & set(bV.cover.names):
        raise GlueError("cover set name collision between the two bundles")
    amb_u, amb_v = bU.cover.ambient, bV.cover.ambient
    lo = np.minimum(amb_u.bbox[:, 0], amb_v.bbox[:, 0])
    hi = np.maximum(amb_u.bbox[:, 1], amb_v.bbox[:, 1])
    ambient = Region(
        f"{amb_u.name}|{amb_v.name}",
        COr((amb_u.constraint, amb_v.constraint)),
        np.stack([lo, hi], axis=1),
    )
    return Cover(ambient, list(bU.cover.sets) + list(bV.cover.sets))


def _carry_transitions(
    dst: TransTable,
    src_bundle: BundleData,
    union_nerve: ResolvedNerve,
    offset: int,
) -> None:
    """Copy a bundle's transitions onto the matching union-nerve edges,
    re-keying components by locating the union representatives with the
    original nerve's locators.  An edge missing from the union nerve would
    drop its transition, so it is refused."""
    for (i, j), bycomp in src_bundle.transitions.items():
        edge = (i + offset, j + offset)
        if edge not in union_nerve.simplices:
            raise GlueError(
                f"the glued resolution has no overlap {edge} for the transition on "
                f"{src_bundle.cover.names[i]} x {src_bundle.cover.names[j]}"
            )
        out: dict[Optional[int], MatExpr] = {}
        if set(bycomp) == {None}:
            out[None] = bycomp[None]
        else:
            for ci, rep in enumerate(union_nerve.components(edge)):
                old_ci = src_bundle.nerve.locate((i, j), rep)
                out[ci] = _on_component(bycomp, old_ci)
        dst[edge] = out


def validate_iso(
    bU: BundleData,
    bV: BundleData,
    iso: BundleIso,
    union_nerve: ResolvedNerve,
    samples_per_simplex: int = 12,
    tol: float = 1e-9,
    seed: int = 0,
) -> CocycleReport:
    """Check the transition equation of the gluing construction on every mixed
    simplex of the union nerve: with h carrying U-frames to V-frames,
    f(i2<-i1) = h(j2,i2)^{-1} g(j2<-j1) h(j1,i1) on each component.  An h
    with determinant at or below `_DET_FLOOR` fails the check, and the report
    then names the first such point."""
    off = len(bU.cover.sets)
    rng = np.random.default_rng(seed)
    worst, where, npts = 0.0, "", 0
    det_ok = True
    for s in sorted(union_nerve.simplices):
        us = [i for i in s if i < off]
        vs = [j - off for j in s if j >= off]
        if not us or not vs or len(s) < 2:
            continue
        i1, i2 = us[0], us[-1]
        j1, j2 = vs[0], vs[-1]
        for ci in range(len(union_nerve.components(s))):
            for z in _samples_in_component(union_nerve, s, ci, samples_per_simplex, rng):

                def hmat(i: int, j: int) -> np.ndarray:
                    e = (i, j + off)
                    comp = union_nerve.locate(e, z) if e in union_nerve.simplices else 0
                    return iso.matrix(i, j, comp, bU.rank).at(z)

                def comp_of(nerve: ResolvedNerve, a: int, bidx: int) -> int:
                    if a == bidx:
                        return 0
                    return nerve.locate((min(a, bidx), max(a, bidx)), z)

                f = transition_at(bU, i2, i1, z, comp_of(bU.nerve, i1, i2))
                g = transition_at(bV, j2, j1, z, comp_of(bV.nerve, j1, j2))
                h2, h1 = hmat(i2, j2), hmat(i1, j1)
                npts += 1
                if min(abs(np.linalg.det(h2)), abs(np.linalg.det(h1))) <= _DET_FLOOR:
                    if det_ok:
                        det_ok = False
                        where = f"mixed simplex {s} comp {ci}: determinant below floor"
                    continue
                res = float(np.max(np.abs(f - np.linalg.inv(h2) @ g @ h1)))
                if res > worst:
                    worst = res
                    if det_ok:
                        where = f"mixed simplex {s} comp {ci}"
    return CocycleReport(worst, where, npts, det_ok, tol)


def glue(
    bU: BundleData,
    bV: BundleData,
    iso: BundleIso,
    resolution: Resolution,
    k_max: int = 3,
    samples_per_simplex: int = 12,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[BundleData, CocycleReport, CocycleReport]:
    """Bundle on the union cover restricting to each input.

    Transitions are assigned verbatim: the inputs' own pairs keep their
    matrices, and each mixed pair (U_i, V_j) gets the isomorphism matrix
    h(j, i).  Returns the glued bundle with the iso-validation and cocycle
    reports; gluing refuses only on structural errors (GlueError: ranks, set
    names, or a transition or iso on an overlap the resolution lacks),
    validation failures are reported in the returned reports.
    """
    if bU.rank != bV.rank:
        raise GlueError(f"rank mismatch: {bU.rank} vs {bV.rank}")
    cover = _union_cover(bU, bV)
    nerve = build_nerve(cover, k_max, resolution)
    off = len(bU.cover.sets)
    transitions: TransTable = {}
    _carry_transitions(transitions, bU, nerve, 0)
    _carry_transitions(transitions, bV, nerve, off)
    for (i, j), bycomp in iso.h.items():
        edge = (i, j + off)
        if edge not in nerve.simplices:
            raise GlueError(f"iso given on empty overlap U_{i} x V_{j}")
        transitions[edge] = dict(bycomp)
    out = BundleData(cover, nerve, bU.rank, transitions)
    iso_rep = validate_iso(bU, bV, iso, nerve, samples_per_simplex, tol, seed)
    coc_rep = validate_cocycle(out, samples_per_simplex, tol, seed)
    return out, iso_rep, coc_rep


# ---------------------------------------------------------------------------
# Restriction and pullback


def restrict_to_sets(b: BundleData, keep: list[int]) -> BundleData:
    """Exact restriction to a subset of cover sets: sub-nerve extraction with
    transitions carried over verbatim (structurally identical)."""
    old_to_new = {old: new for new, old in enumerate(keep)}
    nerve = b.nerve.subnerve(keep)
    transitions: TransTable = {}
    for (i, j), bycomp in b.transitions.items():
        if i in old_to_new and j in old_to_new:
            transitions[(old_to_new[i], old_to_new[j])] = bycomp
    return BundleData(nerve.cover, nerve, b.rank, transitions)


def pullback(
    b: BundleData,
    chart: ChartMap,
    pre_cover: Cover,
    resolution: Resolution,
    k_max: int = 3,
    samples_per_set: int = 200,
    seed: int = 0,
) -> BundleData:
    """Pull transition data back through a chart map.

    The caller supplies the preimage cover (set i of it must map into set i of
    the bundle's cover); expressions are composed with the chart's forward
    components, and per-component matrices are transported by locating the
    image of each preimage component representative.  Sampled points of every
    preimage set must lie in the declared injectivity chart.
    """
    if len(pre_cover.sets) != len(b.cover.sets):
        raise GlueError("preimage cover must have one set per original set")
    rng = np.random.default_rng(seed)
    for name, reg in pre_cover.sets:
        pts = reg.sample(samples_per_set, rng)
        if not np.all(chart.domain.mask(pts)):
            raise ChartError(f"preimage set {name!r} leaves the injectivity chart")
        img = chart.forward_xy(pts)
        idx = pre_cover.index(name)
        if not np.all(b.cover.region(idx).mask(img)):
            raise ChartError(f"image of preimage set {name!r} leaves its target set")
    nerve = build_nerve(pre_cover, k_max, resolution)
    mapping = {j: chart.forward[j] for j in range(chart.n_out)}
    transitions: TransTable = {}
    for (i, j), bycomp in b.transitions.items():
        if (i, j) not in nerve.simplices:
            continue
        out: dict[Optional[int], MatExpr] = {}
        if set(bycomp) == {None}:
            M = bycomp[None]
            out[None] = MatExpr(
                tuple(tuple(subst(e, mapping) for e in row) for row in M.entries)
            )
        else:
            for ci, rep in enumerate(nerve.components((i, j))):
                old_ci = b.nerve.locate((i, j), chart.forward_point(rep))
                M = _on_component(bycomp, old_ci)
                out[ci] = MatExpr(
                    tuple(tuple(subst(e, mapping) for e in row) for row in M.entries)
                )
        transitions[(i, j)] = out
    return BundleData(pre_cover, nerve, b.rank, transitions)


# ---------------------------------------------------------------------------
# Exponential sequence, Chern cocycle, flat classes


def exp_sequence_push(
    nerve: ResolvedNerve, c: IntCochain, scale: str = "half"
) -> BundleData:
    """Turn an integer 1-cocycle into a rank-1 bundle with unit-constant
    transitions exp(pi i c) (half) or exp(2 pi i c) (full); both are exact
    integer powers of -1 and 1 respectively, so no rounding is involved."""
    if scale not in ("half", "full"):
        raise ValueError("scale must be 'half' or 'full'")
    if c.degree != 1 or c.ring != "Z":
        raise ValueError("expected an integer cochain of degree 1")
    if not coboundary(nerve, c).is_zero():
        raise NotACocycleError("exponential push needs a cocycle")
    transitions: TransTable = {}
    for edge in nerve.simplices_of_dim(1):
        cases = {}
        nontrivial = False
        for ci in range(len(nerve.components(edge))):
            v = c.get(edge, ci)
            unit = 1 if scale == "full" else (-1) ** v
            cases[ci] = Const(unit)
            nontrivial = nontrivial or unit != 1
        if nontrivial:
            transitions[edge] = {
                ci: MatExpr(((e,),)) for ci, e in cases.items()
            }
    return BundleData(nerve.cover, nerve, 1, transitions)


@dataclass
class ChernCocycle:
    cochain: IntCochain
    max_rounding_residual: float


def chern_cocycle(b: BundleData, tol_round: float = 1e-6) -> ChernCocycle:
    """Degree-2 integer cocycle of a rank-1 bundle with monomial transitions.

    One continuous log determination is fixed per (edge, component); on each
    (triple, component) the alternating sum of the three logs at the
    representative, divided by 2 pi i, is rounded to the nearest integer.  The
    rounding residual must stay below tol_round and the resulting integer
    cochain must be a cocycle exactly.
    """
    if b.rank != 1:
        raise ShapeError("first-Chern extraction is rank-1 only")
    logs: dict[tuple[Edge, int], MonLog] = {}
    for edge in b.nerve.simplices_of_dim(1):
        i, j = edge
        for ci, rep in enumerate(b.nerve.components(edge)):
            logs[(edge, ci)] = mon_log(b.edge_matrix(i, j, ci).entries[0][0], rep)
    values: dict[tuple[tuple[int, ...], int], int] = {}
    worst = 0.0
    two_pi_i = 2j * math.pi
    for tri in b.nerve.simplices_of_dim(2):
        i, j, k = tri
        for ci, rep in enumerate(b.nerve.components(tri)):
            c_jk = b.nerve.face_component(tri, ci, 0)
            c_ik = b.nerve.face_component(tri, ci, 1)
            c_ij = b.nerve.face_component(tri, ci, 2)
            raw = (
                logs[((j, k), c_jk)].at(rep)
                - logs[((i, k), c_ik)].at(rep)
                + logs[((i, j), c_ij)].at(rep)
            ) / two_pi_i
            rounded = int(round(raw.real))
            resid = abs(raw - rounded)
            worst = max(worst, resid)
            if resid >= tol_round:
                raise BranchError(
                    f"rounding residual {resid:.3e} at simplex {tri} component {ci}: "
                    "inconsistent branch choice"
                )
            if rounded:
                values[(tri, ci)] = rounded
    cochain = IntCochain(2, "Z", values)
    if b.nerve.k_max >= 3 and not coboundary(b.nerve, cochain).is_zero():
        raise NotACocycleError("rounded degree-2 cochain is not a cocycle")
    return ChernCocycle(cochain, worst)


@dataclass
class FlatClassResult:
    trivializable: bool
    signs: Optional[dict[tuple[int, int], int]]
    verdict: CoboundaryVerdict

    def to_jsonable(self):
        out = {"trivializable": self.trivializable, "verdict": self.verdict.to_jsonable()}
        if self.signs is not None:
            out["signs"] = [
                {"set": i, "component": ci, "sign": s}
                for (i, ci), s in sorted(self.signs.items())
            ]
        return out


def flat_class_test(b: BundleData) -> FlatClassResult:
    """Decide whether locally constant +-1 transitions admit a trivialization
    f(j<-i) = s_j / s_i with signs s per (set, component).

    The multiplicative problem is exactly a mod-2 coboundary question for the
    bit cochain of the -1 entries.
    """
    if b.rank != 1:
        raise ShapeError("flat-class test is rank-1 only")
    bits: dict[tuple[tuple[int, ...], int], int] = {}
    for edge in b.nerve.simplices_of_dim(1):
        i, j = edge
        for ci in range(len(b.nerve.components(edge))):
            e = b.edge_matrix(i, j, ci).entries[0][0]
            if e == Const(1) or e == Const(1 + 0j):
                continue
            if e == Const(-1) or e == Const(-1 + 0j):
                bits[(edge, ci)] = 1
            else:
                raise ShapeError(f"transition on {edge} comp {ci} is not a +-1 constant")
    verdict = is_coboundary(b.nerve, IntCochain(1, "Z2", bits))
    if not verdict.yes:
        return FlatClassResult(False, None, verdict)
    signs: dict[tuple[int, int], int] = {}
    for vert in b.nerve.simplices_of_dim(0):
        for ci in range(len(b.nerve.components(vert))):
            signs[(vert[0], ci)] = (-1) ** verdict.primitive.get(vert, ci)
    return FlatClassResult(True, signs, verdict)
