"""Line bundles presented by transition functions over a resolved nerve.

A bundle stores one holomorphic expression per ordered set pair (i, j) with
i < j and overlap component, or one for every component under the key None;
the stored expression carries frame i to frame j, and a pair with none stored
has the transition 1; no inverse is ever formed.  On top of this sit the exact
cocycle and gluing validators, the gluing construction, restriction to a
subset of the cover sets and pullback, the integer-to-units exponential push,
the first Chern cocycle as exact integers from exponents and windings, and the
locally-constant trivialization test.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from typing import Optional

from .errors import (
    ChartError,
    DomainError,
    GlueError,
    NotACocycleError,
    ShapeError,
)
from .geometry import (
    CAnd, CLt, COr, CPoint, Region, SConst, SLogAbsZ, SPow, SProd, SRho, SSum, SX, SY, conjuncts, reads_y_only
)
from .hexpr import (
    ChartMap,
    Const,
    Coord,
    Exp,
    HExpr,
    Laurent,
    Product,
    as_laurent,
    as_monomial,
    laurent_add,
    laurent_mul,
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
    "FlatClassResult",
    "trivial_bundle",
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
TransTable = dict[Edge, dict[Optional[int], HExpr]]

# the transition of a pair with none stored; one object, so that `_report`
# computes its normal form once
_ONE = Const(1)


def _on_component(table: TransTable, edge: Edge, comp: int) -> HExpr:
    """The expression of a table on one component of an edge: 1 when the
    table has none for the edge, and the key None holds the expression of
    every component the edge's entry does not name."""
    bycomp = table.get(edge)
    if bycomp is None:
        return _ONE
    return bycomp[comp] if comp in bycomp else bycomp[None]


class BundleData:
    """A cover with its resolved nerve and per-pair transitions.

    transitions[(i, j)][comp] with i < j carries frame i to frame j on the
    given component of the overlap (key None: the transition of every
    component not named).  Identity transitions are implicit and never stored.
    """

    def __init__(self, cover: Cover, nerve: ResolvedNerve, transitions: TransTable) -> None:
        for (i, j), bycomp in transitions.items():
            if not i < j:
                raise ValueError("transition keys must be ordered pairs (i, j), i < j")
            if (i, j) not in nerve.simplices:
                raise ValueError(f"transition on empty overlap {(i, j)}")
            comps = set(range(len(nerve.components((i, j)))))
            if set(bycomp) - comps - {None}:
                raise ValueError(f"transition on {(i, j)} names a component the overlap lacks")
            if None not in bycomp and comps - set(bycomp):
                raise ValueError(f"transition on {(i, j)} misses a component and has no None key")
        self.cover, self.nerve, self.transitions = cover, nerve, transitions

    def transition(self, i: int, j: int, comp: int) -> HExpr:
        """The transition of the ordered edge (i < j) on one component."""
        return _on_component(self.transitions, (i, j), comp)

    def to_jsonable(self):
        return {
            "cover": self.cover.to_jsonable(),
            "nerve": self.nerve.to_jsonable(),
            "transitions": [
                {
                    "pair": list(pair),
                    "components": [
                        {"component": ci, "transition": e.to_jsonable()}
                        for ci, e in sorted(
                            bycomp.items(), key=lambda kv: (kv[0] is None, kv[0])
                        )
                    ],
                }
                for pair, bycomp in sorted(self.transitions.items())
            ],
        }


def trivial_bundle(cover: Cover, nerve: ResolvedNerve) -> BundleData:
    return BundleData(cover, nerve, {})


# ---------------------------------------------------------------------------
# Exact validation of transition identities


def _defect(a: Laurent, b: Laurent, c: Laurent, d: Laurent) -> float:
    """The largest coefficient modulus of a b - c d (0.0 when they agree)."""
    return max(map(abs, laurent_add(laurent_mul(a, b), laurent_mul(c, d), -1).values()), default=0.0)


def _nonvanishing(node, n: int) -> set[int]:
    """The j with z_j != 0 wherever a constraint holds, proved from its tree:
    rho < c forces every z_j != 0 (rho is +inf on the axes), and a sum of
    squares below r^2 with a term (x_j - c)^2 or (y_j - c)^2, |c| >= r (as
    `ball_region` builds) forces z_j != 0.  A conjunction proves what any item
    proves."""
    if type(node) is CAnd:
        return set().union(*(_nonvanishing(it, n) for it in node.items))
    if type(node) is not CLt or type(node.rhs) is not SConst:
        return set()
    if type(node.lhs) is SRho:
        return set(range(n))
    terms = node.lhs.terms if type(node.lhs) is SSum else ()
    if not terms or any(type(s) is not SPow or s.k != 2 for s in terms):
        return set()
    offsets = [s.base.terms for s in terms if type(s.base) is SSum and len(s.base.terms) == 2]
    return {
        x.j
        for c, x in offsets
        if type(c) is SConst and type(x) in (SX, SY) and c.value**2 >= node.rhs.value
    }


def _unit_failure(p: Laurent, proven: set[int]) -> Optional[str]:
    """Why a transition is not proved a unit where the coordinates in
    `proven` are nonzero, or None.  Its normal form must be one term c z^a
    (normal forms drop zero coefficients, so c != 0), and each coordinate
    with a nonzero exponent in it must be in `proven`."""
    if len(p) != 1:
        return "not a nonzero monomial"
    need = {j for j, _ in next(iter(p))} - proven
    return f"z_{min(need) + 1} is not proved nonzero on the overlap" if need else None


class CocycleReport:
    # points_checked: the identities checked
    def __init__(self, max_residual: float, worst_location: str, points_checked: int, units_ok: bool) -> None:
        self.max_residual, self.worst_location = max_residual, worst_location
        self.points_checked, self.units_ok = points_checked, units_ok

    @property
    def passed(self) -> bool:
        return self.units_ok and self.max_residual == 0

    def to_jsonable(self):
        return {**vars(self), "passed": self.passed}


def _report(cover: Cover, items) -> CocycleReport:
    """Fold (location, units, identity) items into a report: each unit
    (e, simplex) must pass `_unit_failure` on the intersection of the simplex,
    and each identity (a, b, c, d) or None must give a b = c d exactly, as
    Laurent forms; max_residual is the largest coefficient of a b - c d.  The
    location is the first unit failure, or else the first identity with the
    largest residual."""
    # transitions are shared between simplices; keyed by id, as hashing an
    # expression walks its whole tree, with e kept so that its id stays unique
    forms: dict[int, tuple[HExpr, Laurent]] = {}

    def form(e: HExpr) -> Laurent:
        hit = forms.get(id(e))
        if hit is None:
            hit = forms[id(e)] = (e, as_laurent(e))
        return hit[1]

    worst, where, count, units_ok = 0.0, "", 0, True
    for loc, units, identity in items:
        for e, simplex in units:
            overlap = cover.intersection(simplex).constraint
            why = _unit_failure(form(e), _nonvanishing(overlap, cover.ambient.dim2n // 2))
            if why and units_ok:
                units_ok, where = False, f"{loc}: {why}"
        if identity:
            res = _defect(*map(form, identity))
            count += 1
            if res > worst:
                worst = res
                if units_ok:
                    where = loc
    return CocycleReport(worst, where, count, units_ok)


def validate_cocycle(b: BundleData) -> CocycleReport:
    """Check the cocycle identity f(k<-j) f(j<-i) = f(k<-i) exactly on every
    (triple overlap, component), in the stored forward transitions of its
    faces' components, and that every stored transition is a unit on its
    overlap (`_report`)."""

    def items():
        for edge in sorted(b.transitions):
            for ci in range(len(b.nerve.components(edge))):
                yield f"edge {edge} comp {ci}", [(b.transition(*edge, ci), edge)], None
        for tri in b.nerve.simplices_of_dim(2):
            for ci in range(len(b.nerve.components(tri))):
                f_jk, f_ik, f_ij = (
                    b.transition(*(tri[:m] + tri[m + 1 :]), b.nerve.face_component(tri, ci, m))
                    for m in range(3)
                )
                yield f"triple {tri} comp {ci}", [], (f_jk, f_ij, f_ik, _ONE)

    return _report(b.cover, items())


# ---------------------------------------------------------------------------
# Gluing


class BundleIso:
    """An isomorphism over the overlap of two covers, given per mixed pair:
    h[(i, j)][comp] carries frame U_i of the first bundle to frame V_j of the
    second, on the component of U_i intersect V_j (1 on a pair not given)."""

    def __init__(self, h: TransTable) -> None:
        self.h = h

    def transition(self, i: int, j: int, comp: int) -> HExpr:
        return _on_component(self.h, (i, j), comp)


def _union_cover(bU: BundleData, bV: BundleData) -> Cover:
    names_u = set(bU.cover.names)
    if names_u & set(bV.cover.names):
        raise GlueError("cover set name collision between the two bundles")
    amb_u, amb_v = bU.cover.ambient, bV.cover.ambient
    ambient = Region(
        f"{amb_u.name}|{amb_v.name}",
        COr((amb_u.constraint, amb_v.constraint)),
        [(min(lo1, lo2), max(hi1, hi2)) for (lo1, hi1), (lo2, hi2) in zip(amb_u.bbox, amb_v.bbox)],
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
        out: dict[Optional[int], HExpr] = {}
        if set(bycomp) == {None}:
            out[None] = bycomp[None]
        else:
            for ci, rep in enumerate(union_nerve.components(edge)):
                out[ci] = src_bundle.transition(i, j, src_bundle.nerve.locate((i, j), rep))
        dst[edge] = out


def _input_edge(b: BundleData, a: int, c: int, rep: CPoint) -> HExpr:
    """b's stored transition carrying frame a to frame c (a <= c) on the
    component of their overlap that holds rep; 1 when a == c."""
    if a == c:
        return _ONE
    return b.transition(a, c, b.nerve.locate((a, c), rep))


def validate_iso(
    bU: BundleData,
    bV: BundleData,
    iso: BundleIso,
    union_nerve: ResolvedNerve,
) -> CocycleReport:
    """Check the gluing equation f(i2<-i1) = h(i2,j2)^{-1} g(j2<-j1) h(i1,j1),
    with h carrying U-frames to V-frames, exactly as h(i2,j2) f = g h(i1,j1)
    on every component of every mixed simplex of the union nerve, and that
    each h used is a unit on its overlap (`_report`).  The inputs' edge
    components are found by locating the union representative in their
    nerves."""
    off = len(bU.cover.sets)

    def items():
        for s in sorted(union_nerve.simplices):
            us = [i for i in s if i < off]
            vs = [j for j in s if j >= off]
            if not us or not vs:
                continue
            e1, e2 = (us[0], vs[0]), (us[-1], vs[-1])
            for ci, rep in enumerate(union_nerve.components(s)):
                h1, h2 = (iso.transition(i, j - off, union_nerve.locate((i, j), rep)) for i, j in (e1, e2))
                f = _input_edge(bU, us[0], us[-1], rep)
                g = _input_edge(bV, vs[0] - off, vs[-1] - off, rep)
                yield f"mixed simplex {s} comp {ci}", [(h1, e1), (h2, e2)], (h2, f, g, h1)

    return _report(union_nerve.cover, items())


def glue(
    bU: BundleData,
    bV: BundleData,
    iso: BundleIso,
    resolution: Resolution,
    k_max: int = 3,
) -> tuple[BundleData, CocycleReport, CocycleReport]:
    """Bundle on the union cover restricting to each input.

    Transitions are assigned verbatim: the inputs' own pairs keep their
    transitions, and each mixed pair (U_i, V_j) gets the isomorphism's
    h(i, j).  Returns the glued bundle with the reports of `validate_iso` and
    of `validate_cocycle` on the result, both exact; gluing refuses only on
    structural errors (GlueError: set names, or a transition or iso on
    an overlap the resolution lacks), validation failures are reported in the
    returned reports.
    """
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
    out = BundleData(cover, nerve, transitions)
    return out, validate_iso(bU, bV, iso, nerve), validate_cocycle(out)


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
    return BundleData(nerve.cover, nerve, transitions)


def _exp_image(node, n: int):
    """A tree under w_j = e^{i z_j} on C^n, where |w_j| = e^{-y_j}: y_j
    becomes -log|w_j|, and the sum of y_j^2 over every j becomes rho(w)."""
    if type(node) is tuple:
        return tuple(_exp_image(k, n) for k in node)
    if node == SSum(tuple(SPow(SY(j), 2) for j in range(n))):
        return SRho()
    if type(node) is SY:
        return SProd((SConst(-1.0), SLogAbsZ(node.j)))
    if not hasattr(node, "to_jsonable"):
        return node  # a number
    return type(node)(*(_exp_image(v, n) for v in node.fields()))


def pullback(
    b: BundleData,
    chart: ChartMap,
    pre_cover: Cover,
    resolution: Resolution,
    k_max: int = 3,
) -> BundleData:
    """Pull transition data back through a chart map.

    The caller supplies the preimage cover (set i of it must map into set i of
    the bundle's cover); expressions are composed with the chart's forward
    components, and per-component transitions are transported by locating the
    image of each preimage component representative.  Every preimage set
    lies in the declared injectivity chart: each conjunct of the chart's
    domain is one of the set's.  Its image lies in its target: the chart
    must be w_j = e^{i z_j}, and each of the target's conjuncts one of the
    set's conjuncts in y alone pushed through it (`_exp_image`).
    """
    if len(pre_cover.sets) != len(b.cover.sets):
        raise GlueError("preimage cover must have one set per original set")
    n = chart.n_out
    if chart.forward != tuple(Exp(Product((Const(1j), Coord(j)))) for j in range(n)):
        raise ChartError(f"chart {chart.name!r} is not w_j = e^(i z_j), so its images are unproved")
    for i, (name, reg) in enumerate(pre_cover.sets):
        own = conjuncts(reg.constraint)
        if not set(conjuncts(chart.domain.constraint)) <= set(own):
            raise ChartError(f"preimage set {name!r} leaves the injectivity chart")
        pushed = {_exp_image(c, n) for c in own if reads_y_only(c)}
        if not set(conjuncts(b.cover.region(i).constraint)) <= pushed:
            raise ChartError(f"image of preimage set {name!r} leaves its target set")
    nerve = build_nerve(pre_cover, k_max, resolution)
    mapping = dict(enumerate(chart.forward))
    transitions: TransTable = {}
    for edge, bycomp in b.transitions.items():
        if edge not in nerve.simplices:
            continue
        if set(bycomp) == {None}:
            transitions[edge] = {None: subst(bycomp[None], mapping)}
            continue
        transitions[edge] = {
            ci: subst(b.transition(*edge, b.nerve.locate(edge, chart.forward_point(rep))), mapping)
            for ci, rep in enumerate(nerve.components(edge))
        }
    return BundleData(pre_cover, nerve, transitions)


# ---------------------------------------------------------------------------
# Exponential sequence, Chern cocycle, flat classes


def exp_sequence_push(
    nerve: ResolvedNerve, c: IntCochain, scale: str = "half"
) -> BundleData:
    """Turn an integer 1-cocycle into a line bundle with unit-constant
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
            transitions[edge] = cases
    return BundleData(nerve.cover, nerve, transitions)


def _winding(z: complex, u: complex) -> int:
    """The w with arg z + 2 pi w in (arg u - pi, arg u + pi): the branch of
    log z_j fixed at an edge representative u, read at a triple's
    representative z.  z or u zero, or z on the cut opposite u, is refused."""
    d = cmath.phase(z) - cmath.phase(u)
    if z == 0 or u == 0 or abs(d) == math.pi:
        raise DomainError(f"no branch of log z at {z} fixed at {u}")
    return (d < -math.pi) - (d > math.pi)


def chern_cocycle(b: BundleData) -> IntCochain:
    """Degree-2 integer cocycle of a line bundle with monomial transitions,
    c1 = delta[(1/2 pi i) log f] of the exponential sequence.

    Each (edge, component) fixes log f = log c + sum_j k_j log z_j for its
    transition c z^k (`as_monomial`), with arg z_j within pi of its
    representative's.  On a (triple, component) the faces' exponents must
    cancel and c_jk c_ij = c_ik must hold exactly (else NotACocycleError), so
    the alternating sum of the three logs over 2 pi i is the integer
    sum_faces +-sum_j k_j w_j + m: w_j is the winding of z_j at the triple's
    representative (`_winding`), and m in {-1, 0, 1} makes
    Arg c_jk + Arg c_ij - 2 pi m = Arg c_ik.  The cochain must be a cocycle.
    """
    mono = {}
    for edge in b.nerve.simplices_of_dim(1):
        for ci, rep in enumerate(b.nerve.components(edge)):
            c, k = as_monomial(b.transition(*edge, ci))
            if c == 0:
                raise ShapeError(f"transition on {edge} comp {ci} is zero")
            mono[(edge, ci)] = c, k, rep
    values: dict[tuple[tuple[int, ...], int], int] = {}
    for tri in b.nerve.simplices_of_dim(2):
        for ci, rep in enumerate(b.nerve.components(tri)):
            total, exps, coeffs = 0, Counter(), []
            for face, sign in ((0, 1), (1, -1), (2, 1)):
                edge = tri[:face] + tri[face + 1 :]
                c, k, edge_rep = mono[(edge, b.nerve.face_component(tri, ci, face))]
                coeffs.append(c)
                for j, kj in k.items():
                    exps[j] += sign * kj
                    total += sign * kj * _winding(rep.z(j), edge_rep.z(j))
            c_jk, c_ik, c_ij = coeffs
            if any(exps.values()) or c_jk * c_ij != c_ik:
                raise NotACocycleError(
                    f"transitions do not compose on simplex {tri} component {ci}"
                )
            arg = cmath.phase(c_jk) + cmath.phase(c_ij)
            total += (arg > math.pi) - (arg <= -math.pi)
            if total:
                values[(tri, ci)] = total
    cochain = IntCochain(2, "Z", values)
    if b.nerve.k_max >= 3 and not coboundary(b.nerve, cochain).is_zero():
        raise NotACocycleError("degree-2 Chern cochain is not a cocycle")
    return cochain


class FlatClassResult:
    def __init__(self, trivializable: bool, signs: Optional[dict[tuple[int, int], int]],
                 verdict: CoboundaryVerdict) -> None:
        self.trivializable, self.signs, self.verdict = trivializable, signs, verdict

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
    bits: dict[tuple[tuple[int, ...], int], int] = {}
    for edge in b.nerve.simplices_of_dim(1):
        i, j = edge
        for ci in range(len(b.nerve.components(edge))):
            unit = as_laurent(b.transition(i, j, ci))
            if unit == {(): -1}:
                bits[(edge, ci)] = 1
            elif unit != {(): 1}:
                raise ShapeError(f"transition on {edge} comp {ci} is not a +-1 constant")
    verdict = is_coboundary(b.nerve, IntCochain(1, "Z2", bits))
    if not verdict.yes:
        return FlatClassResult(False, None, verdict)
    signs: dict[tuple[int, int], int] = {}
    for vert in b.nerve.simplices_of_dim(0):
        for ci in range(len(b.nerve.components(vert))):
            signs[(vert[0], ci)] = (-1) ** verdict.primitive.get(vert, ci)
    return FlatClassResult(True, signs, verdict)
