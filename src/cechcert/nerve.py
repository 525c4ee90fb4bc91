"""Component-resolved nerves of covers and their Cech cohomology over Z and Z/2.

A nerve simplex is a sorted tuple of cover-set indices whose intersection is
nonempty; every simplex carries the list of connected components of that
intersection, each with one representative point.  Cochains assign one value
per (simplex, component), which is what makes disconnected overlaps (the
situation the whole construction turns on) expressible.  The face maps are
integer tables: for each (simplex, component) of degree k, the position in the
degree-(k-1) basis of its component on each facet, which is all the
differential reads.

Sign convention: simplices are stored as sorted index tuples and the
differential is the alternating sum over dropped indices,
(dc)(s, C) = sum_m (-1)^m c(s minus its m-th index, face component of C).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import AbstractSet, Callable, Optional, Sequence

from .errors import NotACocycleError, ResolutionError, ResourceError, VerificationError
from .geometry import CLt, COr, CPoint, Frozen, Region, SConst, SProd, SY, conjuncts, masks
from .snf import pivot_divisors, smith_normal_form, solve_integer

__all__ = [
    "Cover",
    "AnalyticPatch",
    "Resolution",
    "ResolvedNerve",
    "IntCochain",
    "CohomologyResult",
    "CoboundaryVerdict",
    "build_nerve",
    "coboundary",
    "delta_rows",
    "delta_matrix",
    "cohomology",
    "is_coboundary",
    "smith_normal_form",
    "check_cover",
]

Simplex = tuple[int, ...]


class Cover:
    """An ambient region together with a named, ordered family of open sets."""

    def __init__(self, ambient: Region, sets: list[tuple[str, Region]]) -> None:
        names = [n for n, _ in sets]
        if len(set(names)) != len(names):
            raise ValueError("cover set names must be unique")
        self.ambient, self.sets = ambient, sets

    @property
    def names(self) -> list[str]:
        return [n for n, _ in self.sets]

    def region(self, i: int) -> Region:
        return self.sets[i][1]

    def index(self, name: str) -> int:
        return self.names.index(name)

    def intersection(self, simplex: Simplex) -> Region:
        reg = self.region(simplex[0])
        for i in simplex[1:]:
            reg = reg.intersect(self.region(i))
        return reg

    def to_jsonable(self):
        return {
            "ambient": self.ambient.name,
            "sets": [{"name": n, "region": r.to_jsonable()} for n, r in self.sets],
        }


class AnalyticPatch:
    """Analytic component data for one intersection: representatives in
    component order plus a labeling function that names a point's component."""

    def __init__(self, reps: list[CPoint], locate: Callable[[CPoint], int]) -> None:
        self.reps, self.locate = reps, locate

    def face_map(self, facet: "AnalyticPatch") -> Sequence[int]:
        """The component of `facet`'s intersection that holds each of these
        components, in component order: the facet locates each representative."""
        return [facet.locate(rep) for rep in self.reps]


class Resolution:
    """The components of each intersection: analytic patches keyed by sorted
    index tuple; an intersection without a patch is empty."""

    def __init__(self, patches: Optional[dict[Simplex, AnalyticPatch]] = None) -> None:
        self.patches = {} if patches is None else patches


class ResolvedNerve:
    """The nerve of a cover with every intersection resolved into components.

    `face_tables[k]`, for each built degree k >= 1, holds one column per
    facet m = 0..k, one entry per element of `basis(k)`: the position in
    `basis(k - 1)` of its face component on the m-th facet (the simplex
    without its m-th index)."""

    def __init__(
        self,
        cover: Cover,
        k_max: int,
        simplices: dict[Simplex, list[CPoint]],
        face_tables: dict[int, list[Sequence[int]]],
        locators: dict[Simplex, Callable[[CPoint], int]],
    ) -> None:
        self.cover = cover
        self.k_max = k_max
        self.simplices = simplices
        self.face_tables = face_tables
        self.locators = locators
        self._basis: dict[int, list[tuple[Simplex, int]]] = {}
        self._offset: dict[Simplex, int] = {}

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def components(self, simplex: Simplex) -> list[CPoint]:
        return self.simplices[simplex]

    def basis(self, k: int) -> list[tuple[Simplex, int]]:
        """Canonical ordered basis of k-cochains: (simplex, component) pairs."""
        if k not in self._basis:
            out = []
            for s in self.simplices_of_dim(k):
                self._offset[s] = len(out)
                out.extend((s, ci) for ci in range(len(self.simplices[s])))
            self._basis[k] = out
        return self._basis[k]

    def offset(self, simplex: Simplex) -> int:
        """The position of (simplex, 0) in the basis of its degree."""
        if simplex not in self._offset:
            self.basis(len(simplex) - 1)
        return self._offset[simplex]

    def face_component(self, simplex: Simplex, comp: int, m: int) -> int:
        col = self.face_tables[len(simplex) - 1][m][self.offset(simplex) + comp]
        return col - self.offset(simplex[:m] + simplex[m + 1 :])

    def locate(self, simplex: Simplex, z: CPoint) -> int:
        return self.locators[simplex](z)

    def subnerve(self, keep: list[int]) -> "ResolvedNerve":
        """Exact restriction to a subset of cover sets (in increasing order),
        reindexed."""
        if any(a >= b for a, b in zip(keep, keep[1:])):
            raise ValueError(f"subnerve needs increasing set indices, got {keep}")
        old_to_new = {old: new for new, old in enumerate(keep)}
        sub_cover = Cover(self.cover.ambient, [self.cover.sets[i] for i in keep])
        simplices: dict[Simplex, list[CPoint]] = {}
        locators: dict[Simplex, Callable[[CPoint], int]] = {}
        for s, comps in self.simplices.items():
            if all(i in old_to_new for i in s):
                ns = tuple(old_to_new[i] for i in s)
                simplices[ns] = list(comps)
                locators[ns] = self.locators[s]
        sub = ResolvedNerve(sub_cover, self.k_max, simplices, {}, locators)

        def old_column(ns: Simplex, ci: int) -> int:
            return self.offset(tuple(keep[i] for i in ns)) + ci

        for k, cols in self.face_tables.items():
            # a kept simplex keeps its facets, so each of its faces has a new position
            new = {old_column(*key): j for j, key in enumerate(sub.basis(k - 1))}
            kept = [old_column(*key) for key in sub.basis(k)]
            sub.face_tables[k] = [tuple([new[col[r]] for r in kept]) for col in cols]
        return sub

    def to_jsonable(self):
        return {
            "k_max": self.k_max,
            "sets": self.cover.names,
            "simplices": [
                {
                    "sets": [self.cover.names[i] for i in s],
                    "components": len(comps),
                    "representatives": [list(r.xy) for r in comps],
                }
                for s, comps in sorted(self.simplices.items())
            ],
        }


# the most simplices build_nerve enumerates: 14,892 at cohomology-torus --n 4
MAX_NERVE_SIMPLICES = 100_000


def simplex_count(n_sets: int, k_max: int) -> int:
    """The number of simplices up to dimension k_max on n_sets sets."""
    return sum(math.comb(n_sets, size) for size in range(1, min(k_max + 1, n_sets) + 1))


def build_nerve(cover: Cover, k_max: int, resolution: Resolution) -> ResolvedNerve:
    """Enumerate intersections up to k_max + 1 sets and resolve their components.

    A cover with more than MAX_NERVE_SIMPLICES candidate simplices is
    refused (ResourceError) before anything is enumerated or located.
    A simplex exists iff its patch is present.  Simplices are enumerated in
    canonical order, so each degree's basis and face table grow together: a
    simplex's faces on a facet are its patch's `face_map` onto the facet's
    patch, checked to name components of that facet.

    Analytic representatives are tested against each cover set in one batch
    before enumeration: an intersection's constraint is the conjunction of its
    members' constraints, so a representative lies in the intersection of s
    exactly when it lies in every set of s.  Each patch's labeler must name
    its own representatives by their positions.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_sets = len(cover.sets)
    count = simplex_count(n_sets, k_max)
    if count > MAX_NERVE_SIMPLICES:
        raise ResourceError(
            f"the nerve of {n_sets} sets has up to {count:,} simplices of dimension at most "
            f"{k_max}, over the limit of {MAX_NERVE_SIMPLICES:,}"
        )
    simplices: dict[Simplex, list[CPoint]] = {}
    locators: dict[Simplex, Callable[[CPoint], int]] = {}
    bases: dict[int, list[tuple[Simplex, int]]] = {}
    face_tables: dict[int, list[tuple[int, ...]]] = {}
    offset: dict[Simplex, int] = {}
    members = _set_members(cover, resolution)
    everywhere = frozenset(range(n_sets))
    # patches may be shared between simplices, so what depends on patches
    # alone is computed and checked once: a patch's labeler check and the sets
    # holding all its representatives, and a face map per pair of patches
    holding: dict[int, frozenset[int]] = {}
    face_maps: dict[tuple[int, int], Sequence[int]] = {}
    for size in range(1, min(k_max + 2, n_sets + 1)):
        basis: list[tuple[Simplex, int]] = []
        columns: list[list[int]] = [[] for _ in range(size)]
        for s in itertools.combinations(range(n_sets), size):
            facets = [s[:m] + s[m + 1 :] for m in range(size)] if size > 1 else []
            if not all(map(simplices.__contains__, facets)):
                continue  # a facet is empty, so the intersection is too
            patch = resolution.patches.get(s)
            if patch is None:
                continue
            common = holding.get(id(patch))
            if common is None:
                for ci, rep in enumerate(patch.reps):
                    if patch.locate(rep) != ci:
                        raise ResolutionError(
                            f"analytic labeler of {s} mislabels its own representative {ci}"
                        )
                common = holding[id(patch)] = everywhere.intersection(
                    *(members[rep] for rep in patch.reps)
                )
            if not common.issuperset(s):
                ci = next(ci for ci, rep in enumerate(patch.reps) if not members[rep].issuperset(s))
                raise ResolutionError(
                    f"analytic representative {ci} of {s} is outside the intersection"
                )
            for m, f in enumerate(facets):
                facet_patch = resolution.patches[f]
                fmap = face_maps.get((id(patch), id(facet_patch)))
                if fmap is None:
                    fmap = face_maps[id(patch), id(facet_patch)] = patch.face_map(facet_patch)
                    if len(fmap) != len(patch.reps) or (
                        fmap and not 0 <= min(fmap) <= max(fmap) < len(facet_patch.reps)
                    ):
                        raise ResolutionError(f"face map of {s} onto {f} misses its components")
                columns[m].extend(map(offset[f].__add__, fmap))
            offset[s] = len(basis)
            basis.extend((s, ci) for ci in range(len(patch.reps)))
            simplices[s] = list(patch.reps)
            locators[s] = patch.locate
        bases[size - 1] = basis
        if size > 1:
            face_tables[size - 1] = list(map(tuple, columns))  # tuples of ints, which gc stops tracking
    nerve = ResolvedNerve(cover, k_max, simplices, face_tables, locators)
    nerve._basis.update(bases)
    nerve._offset.update(offset)
    return nerve


def _set_members(cover: Cover, resolution: Resolution) -> dict[CPoint, frozenset[int]]:
    """The cover sets containing each representative of the patches whose
    indices are sets of this cover, from one `masks` batch of every set."""
    n_sets = len(cover.sets)
    patches = {id(p): p for s, p in resolution.patches.items() if 0 <= min(s) and max(s) < n_sets}
    reps = list(dict.fromkeys(rep for patch in patches.values() for rep in patch.reps))
    if not reps:
        return {}
    inside = zip(*masks([region for _, region in cover.sets], [rep.xy for rep in reps]))
    return {rep: frozenset(itertools.compress(range(n_sets), row)) for rep, row in zip(reps, inside)}


# ---------------------------------------------------------------------------
# Cochains and the differential


class IntCochain:
    """An integer cochain on a resolved nerve; missing keys read as 0."""

    def __init__(self, degree: int, ring: str, values: Optional[dict] = None) -> None:
        if ring not in ("Z", "Z2"):
            raise ValueError("ring must be 'Z' or 'Z2'")
        values = {} if values is None else values
        self.degree, self.ring = degree, ring  # ring: "Z" or "Z2"
        self.values = {k: v % 2 for k, v in values.items()} if ring == "Z2" else values

    def get(self, simplex: Simplex, comp: int) -> int:
        return self.values.get((simplex, comp), 0)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def vector(self, nerve: ResolvedNerve) -> list[int]:
        return [self.get(s, ci) for s, ci in nerve.basis(self.degree)]

    def to_jsonable(self):
        return {
            "degree": self.degree,
            "ring": self.ring,
            "values": [
                {"simplex": list(s), "component": ci, "value": v}
                for (s, ci), v in sorted(self.values.items())
                if v != 0
            ],
        }


def coboundary(nerve: ResolvedNerve, c: IntCochain) -> IntCochain:
    """The Cech differential; satisfies d(d(c)) = 0."""
    k = c.degree
    if k + 1 > nerve.k_max:
        raise ValueError("nerve not built deep enough for this coboundary")
    if k < 0:
        return IntCochain(0, c.ring, {})  # a (-1)-cochain lives on the zero group
    out: dict[tuple[Simplex, int], int] = {}
    for s, ci in nerve.basis(k + 1):
        total = 0
        for m in range(len(s)):
            facet = s[:m] + s[m + 1 :]
            fc = nerve.face_component(s, ci, m)
            total += (-1) ** m * c.get(facet, fc)
        if c.ring == "Z2":
            total %= 2
        if total:
            out[(s, ci)] = total
    return IntCochain(k + 1, c.ring, out)


def delta_rows(nerve: ResolvedNerve, k: int, drop: AbstractSet[int] = frozenset()) -> list[dict[int, int]]:
    """Sparse rows of the degree-k differential: one {column: entry} dict per
    (k+1)-cochain, columns indexing k-cochains, both in canonical basis order;
    the columns in `drop` are left out."""
    if k < 0:
        return [{} for _ in nerve.basis(0)]  # d^{-1} maps from the zero group
    signs, rows = [(-1) ** m for m in range(k + 2)], zip(*nerve.face_tables.get(k + 1, ()))
    # the facets of a simplex differ, so its faces land in distinct columns
    return [{c: v for c, v in zip(cols, signs) if c not in drop} for cols in rows]


def delta_matrix(nerve: ResolvedNerve, k: int):
    """Dense int64 layout of `delta_rows(nerve, k)`, as a numpy array."""
    import numpy as np
    M = np.zeros((len(nerve.basis(k + 1)), len(nerve.basis(k))), dtype=np.int64)
    for r, row in enumerate(delta_rows(nerve, k)):
        for c, v in row.items():
            M[r, c] = v
    return M


# ---------------------------------------------------------------------------
# Cohomology


class CohomologyResult(Frozen):
    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple[int, ...]) -> None:
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)


def cohomology(
    nerve: ResolvedNerve, k: int | range, ring: str = "Z"
) -> CohomologyResult | list[CohomologyResult]:
    """Rank and torsion of H^k = ker(d^k) / im(d^{k-1}) from the invariant
    factors of both differentials; over Z/2 the rank of each is its count of
    odd factors.  k may be a range of consecutive degrees: then the result is
    the list of H^k over it, from one pass in rising degree that builds and
    eliminates each differential once.

    Clearing (Chen-Kerber; Bauer-Kerber-Reininghaus) makes each pass cheaper,
    exactly over Z: the columns of d^k that were pivot rows R of d^{k-1} are
    dropped before d^k is eliminated.  `pivot_divisors` leaves d^{k-1}[R, C]
    unimodular (C its pivot columns), on whichever side it eliminated, so for
    every r in R some e_r + y with y zero on R lies in im d^{k-1}.  Once
    d^k d^{k-1} = 0 holds, column r of d^k is then -d^k y, an integer
    combination of the kept columns: the column lattice of d^k, hence every
    Smith divisor, is unchanged.  `_check_dd_zero` proves d^k d^{k-1} = 0
    for each degree without forming the product: the simplicial identities
    of the face tables, face i of face j = face j-1 of face i for i < j,
    pair the terms of each row of the product with opposite signs."""
    degrees = k if isinstance(k, range) else range(k, k + 1)
    if degrees.step != 1 or not degrees:
        raise ValueError(f"expected a degree or a nonempty range of degrees, got {k!r}")
    if degrees[-1] + 1 > nerve.k_max:
        raise ValueError(f"k_max={nerve.k_max} too small to compute H^{degrees[-1]}")
    divB, cleared = pivot_divisors(delta_rows(nerve, degrees[0] - 1))
    out = []
    for deg in degrees:
        # the rank formula below counts ker(d^k) / im(d^{k-1}), and clearing
        # keeps the divisors of d^k, only if d^k d^{k-1} = 0
        _check_dd_zero(nerve, deg)
        divA, cleared = pivot_divisors(delta_rows(nerve, deg, cleared))
        dim_k = len(nerve.basis(deg))
        if ring == "Z2":
            rank2 = sum(1 for d in divA + divB if d % 2 != 0)
            out.append(CohomologyResult(dim_k - rank2, ()))
        else:
            free = dim_k - len(divA) - len(divB)
            out.append(CohomologyResult(free, tuple(d for d in divB if d > 1)))
        divB = divA
    return out if isinstance(k, range) else out[0]


def _check_dd_zero(nerve: ResolvedNerve, k: int) -> None:
    """Prove d^k d^{k-1} = 0 from the face tables, or raise VerificationError.

    With F the face table of degree k + 1 and G that of degree k, dropping
    the j-th and then the i-th index of a simplex (i < j) gives the same face
    as dropping the i-th and then the (j-1)-th, so a true nerve has
    G[F[r][j]][i] == G[F[r][i]][j - 1] for every row r.  Row r of
    d^k d^{k-1} is the sum over m and i of (-1)^(m+i) e_{G[F[r][m]][i]}; the
    identity gives the terms (m, i) = (j, i) and (i, j - 1) one column and
    opposite signs, and these pairs use every term once, so the row is 0.
    `delta_rows` holds that sum when no row repeats a face: checked for G,
    and for F it follows from the identities (a row of F repeating a face,
    with 3 or more faces, makes some row of G repeat one)."""
    if k < 1 or not any(nerve.face_tables.get(k + 1, ())):
        return  # d^{-1} = 0, or d^k has no rows
    # by columns, gcol[i][c] = G[c][i], and face[j](gcol[i])[r] = G[F[r][j]][i]
    gcol = nerve.face_tables[k]
    face = [operator.itemgetter(*col) for col in nerve.face_tables[k + 1]]
    for j in range(1, k + 2):
        for i in range(j):
            if face[j](gcol[i]) != face[i](gcol[j - 1]):
                raise VerificationError(f"d^{k} d^{k - 1} is not zero: the differential is broken")
    for j in range(1, k + 1):
        for i in range(j):
            if any(map(operator.eq, gcol[i], gcol[j])):
                raise VerificationError(f"a row of d^{k - 1} repeats a face: the differential is broken")


class CoboundaryVerdict:
    """Either yes, with a primitive b satisfying d(b) = c exactly, or no, with
    a witness: a k-chain y on `nerve.basis(k)` and a modulus q (0: exact)
    with y . d(b) = 0 for every (k-1)-cochain b and y . c != 0, both mod q."""

    def __init__(self, primitive: Optional[IntCochain], witness: Optional[IntCochain] = None,
                 modulus: int = 0) -> None:
        self.primitive, self.witness, self.modulus = primitive, witness, modulus

    @property
    def yes(self) -> bool:
        return self.primitive is not None

    def to_jsonable(self):
        out = {"coboundary": self.yes}
        if self.primitive is not None:
            out["primitive"] = self.primitive.to_jsonable()
        if self.witness is not None:
            out["witness"] = {**self.witness.to_jsonable(), "modulus": self.modulus}
        return out


def is_coboundary(nerve: ResolvedNerve, c: IntCochain) -> CoboundaryVerdict:
    """Decide solvability of d(b) = c over the cochain's ring, exactly.

    Both answers are re-checked here, outside the elimination: a primitive by
    d(b) = c, a witness y by y . d^{k-1} = 0 and y . c != 0 mod q, one sparse
    product over the rows of d^{k-1} in the support of y."""
    if not coboundary(nerve, c).is_zero():
        raise NotACocycleError("input cochain is not a cocycle")
    k = c.degree
    rows = delta_rows(nerve, k - 1)
    x, cert = solve_integer(rows, c.vector(nerve), modulus=2 if c.ring == "Z2" else None)
    if x is None:
        y, q = cert
        basis = nerve.basis(k)
        yd: dict[int, int] = {}
        for r, v in y.items():
            for col, e in rows[r].items():
                yd[col] = yd.get(col, 0) + v * e
        yc = sum(v * c.get(*basis[r]) for r, v in y.items())
        if any(v % q if q else v for v in yd.values()) or not (yc % q if q else yc):
            raise VerificationError(f"witness fails y . d = 0 != y . c mod {q}")
        return CoboundaryVerdict(None, IntCochain(k, c.ring, {basis[r]: v for r, v in y.items()}), q)
    primitive = IntCochain(k - 1, c.ring, {key: v for key, v in zip(nerve.basis(k - 1), x) if v})
    check = coboundary(nerve, primitive)
    for s, ci in nerve.basis(k):
        diff = check.get(s, ci) - c.get(s, ci)
        if (diff if c.ring == "Z" else diff % 2) != 0:
            raise VerificationError(f"primitive fails d(b) = c on simplex {s}, component {ci}")
    return CoboundaryVerdict(primitive)


# ---------------------------------------------------------------------------
# Cover checks


# y != 0 for y = (y1, y2), the conjunct that removes the totally real plane:
# strict comparisons with 0, which no float underflow decides wrongly
Y_NONZERO = COr(tuple(c for j in (0, 1) for c in (CLt(SConst(0.0), SY(j)), CLt(SY(j), SConst(0.0)))))
# +-y1 and +-y2 as trees, with their coefficients on (y1, y2)
_SIGNED_Y = {
    SY(0): (1, 0),
    SY(1): (0, 1),
    SProd((SConst(-1.0), SY(0))): (-1, 0),
    SProd((SConst(-1.0), SY(1))): (0, -1),
}


def _half_plane(item) -> Optional[tuple[int, int]]:
    """The normal a != 0 of a strict comparison l < r of +-y1 and +-y2, the
    open half-plane a.y < 0 with a = l - r; None for any other node."""
    ends = (_SIGNED_Y.get(item.lhs), _SIGNED_Y.get(item.rhs)) if type(item) is CLt else (None,)
    if None in ends or ends[0] == ends[1]:
        return None
    (l1, l2), (r1, r2) = ends
    return (l1 - r1, l2 - r2)


def check_cover(cover: Cover) -> None:
    """Prove that the sets of a slab cover lie in its ambient and cover it,
    or raise ResolutionError.  The ambient's conjuncts must be some C and
    y != 0, and each set's C and one Or of open half-planes a.y < 0 in
    y = (y1, y2), which miss y = 0.  The uncovered ambient points have
    y != 0 in the closed cone K where every a.y >= 0, and a cone K != {0} in
    the plane has an extreme ray on a line a.y = 0, so the sets cover the
    ambient when no direction +-(-a2, a1) lies in K: integer dot products."""
    ambient = conjuncts(cover.ambient.constraint)
    base = [c for c in ambient if c != Y_NONZERO]
    if len(base) == len(ambient):
        raise ResolutionError("the ambient region does not remove y = 0")
    normals: list[tuple[int, int]] = []
    for name, reg in cover.sets:
        own = conjuncts(reg.constraint)
        extra = [c for c in own if c not in base]
        union = extra[0] if len(extra) == 1 and type(extra[0]) is COr else COr((None,))
        normals += [_half_plane(item) for item in union.items]
        if None in normals or any(c not in own for c in base):
            raise ResolutionError(f"set {name!r} is not the ambient's bounds and one union of half-planes")
    if not normals:
        raise ResolutionError("the sets hold no half-plane, so they cover nothing")
    for a1, a2 in normals:
        for d1, d2 in ((-a2, a1), (a2, -a1)):
            if all(b1 * d1 + b2 * d2 >= 0 for b1, b2 in normals):
                raise ResolutionError(f"ambient points with y along ({d1}, {d2}) escape the cover")
