"""Component-resolved nerves of covers and their Cech cohomology over Z and Z/2.

A nerve simplex is a sorted tuple of cover-set indices whose intersection is
nonempty; every simplex carries the list of connected components of that
intersection, each with one representative point.  Cochains assign one value
per (simplex, component), which is what makes disconnected overlaps (the
situation the whole construction turns on) expressible.

Sign convention: simplices are stored as sorted index tuples and the
differential is the alternating sum over dropped indices,
(dc)(s, C) = sum_m (-1)^m c(s minus its m-th index, face component of C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NotACocycleError, ResolutionError, VerificationError
from .geometry import CPoint, Region, grid_components
from .snf import SNFResult, smith_normal_form, solve_integer

__all__ = [
    "Cover",
    "GridResolution",
    "AnalyticPatch",
    "Resolution",
    "ResolvedNerve",
    "IntCochain",
    "CohomologyResult",
    "CoboundaryVerdict",
    "build_nerve",
    "coboundary",
    "delta_matrix",
    "cohomology",
    "is_coboundary",
    "smith_normal_form",
    "check_cover",
]

Simplex = tuple[int, ...]


@dataclass
class Cover:
    """An ambient region together with a named, ordered family of open sets."""

    ambient: Region
    sets: list[tuple[str, Region]]

    def __post_init__(self) -> None:
        names = [n for n, _ in self.sets]
        if len(set(names)) != len(names):
            raise ValueError("cover set names must be unique")

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


@dataclass(frozen=True)
class GridResolution:
    step: float
    budget: int = 10_000_000


@dataclass
class AnalyticPatch:
    """Analytic component data for one intersection: representatives in
    component order plus a labeling function used for face maps."""

    reps: list[CPoint]
    locate: Callable[[CPoint], int]
    name: str = "analytic"


@dataclass
class Resolution:
    """How to discover intersection components: explicit analytic patches keyed
    by sorted index tuple, with an optional grid fallback.  Analytic patches
    take precedence; with cross_check set, the grid is run anyway and any
    disagreement in component count is a ResolutionError."""

    patches: dict[Simplex, AnalyticPatch] = field(default_factory=dict)
    grid: Optional[GridResolution] = None
    cross_check: bool = False


class ResolvedNerve:
    """The nerve of a cover with every intersection resolved into components."""

    def __init__(
        self,
        cover: Cover,
        k_max: int,
        simplices: dict[Simplex, list[CPoint]],
        faces: dict[tuple[Simplex, int, int], int],
        locators: dict[Simplex, Callable[[CPoint], int]],
    ) -> None:
        self.cover = cover
        self.k_max = k_max
        self.simplices = simplices
        self.faces = faces
        self.locators = locators
        self._basis: dict[int, list[tuple[Simplex, int]]] = {}

    def simplices_of_dim(self, k: int) -> list[Simplex]:
        return sorted(s for s in self.simplices if len(s) == k + 1)

    def components(self, simplex: Simplex) -> list[CPoint]:
        return self.simplices[simplex]

    def basis(self, k: int) -> list[tuple[Simplex, int]]:
        """Canonical ordered basis of k-cochains: (simplex, component) pairs."""
        if k not in self._basis:
            out = []
            for s in self.simplices_of_dim(k):
                for ci in range(len(self.simplices[s])):
                    out.append((s, ci))
            self._basis[k] = out
        return self._basis[k]

    def face_component(self, simplex: Simplex, comp: int, m: int) -> int:
        return self.faces[(simplex, comp, m)]

    def locate(self, simplex: Simplex, z: CPoint) -> int:
        return self.locators[simplex](z)

    def subnerve(self, keep: list[int]) -> "ResolvedNerve":
        """Exact restriction to a subset of cover sets, reindexed."""
        old_to_new = {old: new for new, old in enumerate(keep)}
        sub_cover = Cover(self.cover.ambient, [self.cover.sets[i] for i in keep])
        simplices: dict[Simplex, list[CPoint]] = {}
        faces: dict[tuple[Simplex, int, int], int] = {}
        locators: dict[Simplex, Callable[[CPoint], int]] = {}
        for s, comps in self.simplices.items():
            if all(i in old_to_new for i in s):
                ns = tuple(old_to_new[i] for i in s)
                simplices[ns] = list(comps)
                locators[ns] = self.locators[s]
                if len(s) > 1:
                    for ci in range(len(comps)):
                        for m in range(len(s)):
                            faces[(ns, ci, m)] = self.faces[(s, ci, m)]
        return ResolvedNerve(sub_cover, self.k_max, simplices, faces, locators)

    def check_faces(self) -> None:
        """Verify the simplicial identity: dropping two indices in either order
        lands in the same component."""
        for s, comps in self.simplices.items():
            if len(s) < 3:
                continue
            for ci in range(len(comps)):
                for m1 in range(len(s)):
                    t1 = s[:m1] + s[m1 + 1 :]
                    c1 = self.faces[(s, ci, m1)]
                    for m2 in range(m1 + 1, len(s)):
                        t2 = s[:m2] + s[m2 + 1 :]
                        c2 = self.faces[(s, ci, m2)]
                        # drop m2 then m1 vs drop m1 then m2-1
                        a = self.faces[(t2, c2, m1)]
                        b = self.faces[(t1, c1, m2 - 1)]
                        ta = t2[:m1] + t2[m1 + 1 :]
                        tb = t1[: m2 - 1] + t1[m2:]
                        if ta != tb or a != b:
                            raise ResolutionError(f"face maps do not commute at {s}")

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


def build_nerve(cover: Cover, k_max: int, resolution: Resolution) -> ResolvedNerve:
    """Enumerate intersections up to k_max + 1 sets and resolve their components.

    A simplex exists iff its patch is present (analytic mode) or the grid scan
    finds at least one in-region lattice node.  Face maps are computed by
    locating each component representative inside every facet.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n_sets = len(cover.sets)
    simplices: dict[Simplex, list[CPoint]] = {}
    locators: dict[Simplex, Callable[[CPoint], int]] = {}
    faces: dict[tuple[Simplex, int, int], int] = {}
    for size in range(1, min(k_max + 2, n_sets + 1)):
        for s in itertools.combinations(range(n_sets), size):
            if size > 1 and any(
                s[:m] + s[m + 1 :] not in simplices for m in range(size)
            ):
                continue  # a facet is empty, so the intersection is too
            patch = resolution.patches.get(s)
            if patch is not None:
                region = cover.intersection(s)
                for ci, rep in enumerate(patch.reps):
                    if not region.contains(rep):
                        raise ResolutionError(
                            f"analytic representative {ci} of {s} is outside the intersection"
                        )
                    if patch.locate(rep) != ci:
                        raise ResolutionError(
                            f"analytic labeler of {s} mislabels its own representative {ci}"
                        )
                if resolution.cross_check and resolution.grid is not None:
                    g = grid_components(region, resolution.grid.step, resolution.grid.budget)
                    if g.n_components != len(patch.reps):
                        raise ResolutionError(
                            f"grid finds {g.n_components} components of {s}, "
                            f"labeler declares {len(patch.reps)}"
                        )
                simplices[s] = list(patch.reps)
                locators[s] = patch.locate
            elif resolution.grid is not None:
                region = cover.intersection(s)
                g = grid_components(region, resolution.grid.step, resolution.grid.budget)
                if g.n_components == 0:
                    continue
                simplices[s] = list(g.representatives)

                def loc(z: CPoint, _g=g, _s=s) -> int:
                    lab = _g.label_at(z)
                    if lab == 0:
                        raise ResolutionError(f"point not on the grid of {_s}")
                    return lab - 1

                locators[s] = loc
            else:
                continue
            if size > 1:
                for ci, rep in enumerate(simplices[s]):
                    for m in range(size):
                        facet = s[:m] + s[m + 1 :]
                        faces[(s, ci, m)] = locators[facet](rep)
    return ResolvedNerve(cover, k_max, simplices, faces, locators)


# ---------------------------------------------------------------------------
# Cochains and the differential


@dataclass
class IntCochain:
    """An integer cochain on a resolved nerve; missing keys read as 0."""

    degree: int
    ring: str  # "Z" or "Z2"
    values: dict[tuple[Simplex, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ring not in ("Z", "Z2"):
            raise ValueError("ring must be 'Z' or 'Z2'")
        if self.ring == "Z2":
            self.values = {k: v % 2 for k, v in self.values.items()}

    def get(self, simplex: Simplex, comp: int) -> int:
        return self.values.get((simplex, comp), 0)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())

    def vector(self, nerve: ResolvedNerve) -> np.ndarray:
        basis = nerve.basis(self.degree)
        return np.array([self.get(s, ci) for s, ci in basis], dtype=object)

    @classmethod
    def from_vector(
        cls, nerve: ResolvedNerve, degree: int, vec, ring: str = "Z"
    ) -> "IntCochain":
        basis = nerve.basis(degree)
        vals = {key: int(v) for key, v in zip(basis, vec) if int(v) != 0}
        return cls(degree, ring, vals)

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


def delta_matrix(nerve: ResolvedNerve, k: int) -> np.ndarray:
    """Matrix of the degree-k differential: rows index (k+1)-cochains, columns
    k-cochains, both in canonical basis order."""
    rows = nerve.basis(k + 1) if k + 1 >= 0 else []
    cols = nerve.basis(k) if k >= 0 else []
    col_index = {key: i for i, key in enumerate(cols)}
    M = np.zeros((len(rows), len(cols)), dtype=np.int64)
    for r, (s, ci) in enumerate(rows):
        for m in range(len(s)):
            facet = s[:m] + s[m + 1 :]
            fc = nerve.face_component(s, ci, m)
            M[r, col_index[(facet, fc)]] += (-1) ** m
    return M


# ---------------------------------------------------------------------------
# Cohomology


@dataclass
class CohomologyResult:
    degree: int
    ring: str
    free_rank: int
    torsion: tuple[int, ...]
    generators: list[IntCochain]
    dims: dict[str, int]

    def to_jsonable(self):
        return {
            "degree": self.degree,
            "ring": self.ring,
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "generators": [g.to_jsonable() for g in self.generators],
            "dims": self.dims,
        }


def _rank2(snf: SNFResult) -> int:
    return sum(1 for d in snf.divisors if d % 2 != 0)


def cohomology(nerve: ResolvedNerve, k: int, ring: str = "Z") -> CohomologyResult:
    """ker(d^k) / im(d^{k-1}) via exact Smith normal form."""
    if k + 1 > nerve.k_max:
        raise ValueError(f"k_max={nerve.k_max} too small to compute H^{k}")
    dim_k = len(nerve.basis(k))
    A = delta_matrix(nerve, k)
    B = delta_matrix(nerve, k - 1) if k >= 1 else np.zeros((dim_k, 0), dtype=np.int64)
    snfA = smith_normal_form(A)
    snfB = smith_normal_form(B)
    dims = {"C_k": dim_k, "C_k+1": A.shape[0], "C_k-1": B.shape[1]}
    if ring == "Z2":
        free = dim_k - _rank2(snfA) - _rank2(snfB)
        return CohomologyResult(k, ring, free, (), [], dims)
    free = dim_k - snfA.rank - snfB.rank
    torsion = tuple(d for d in snfB.divisors if d > 1)
    generators: list[IntCochain] = []
    if free > 0:
        # kernel basis of A, then quotient by the image of B inside it
        Z = np.asarray(snfA.V, dtype=object)[:, snfA.rank :]
        snfZ = smith_normal_form(Z)
        Y = np.zeros((Z.shape[1], B.shape[1]), dtype=object)
        for jcol in range(B.shape[1]):
            y, obs = solve_integer(snfZ, B[:, jcol])
            if obs is not None:
                raise RuntimeError("image column not in kernel: differential is broken")
            Y[:, jcol] = y
        snfY = smith_normal_form(Y)
        gen_mat = Z @ np.asarray(snfY.Uinv, dtype=object)[:, snfY.rank :]
        for i in range(free):
            generators.append(IntCochain.from_vector(nerve, k, gen_mat[:, i]))
    return CohomologyResult(k, ring, free, torsion, generators, dims)


@dataclass
class CoboundaryVerdict:
    """Either yes with a primitive b satisfying d(b) = c exactly, or no with
    the SNF obstruction (the class's nonzero coordinate in the cokernel)."""

    primitive: Optional[IntCochain]
    obstruction: Optional[tuple[int, int]]

    @property
    def yes(self) -> bool:
        return self.primitive is not None

    def to_jsonable(self):
        out = {"coboundary": self.yes}
        if self.primitive is not None:
            out["primitive"] = self.primitive.to_jsonable()
        if self.obstruction is not None:
            out["obstruction"] = {"index": self.obstruction[0], "value": self.obstruction[1]}
        return out


def is_coboundary(nerve: ResolvedNerve, c: IntCochain) -> CoboundaryVerdict:
    """Decide solvability of d(b) = c over the cochain's ring, exactly."""
    if not coboundary(nerve, c).is_zero():
        raise NotACocycleError("input cochain is not a cocycle")
    k = c.degree
    if k == 0:
        if c.is_zero():
            return CoboundaryVerdict(IntCochain(-1, c.ring, {}), None)
        key = next(key for key, v in sorted(c.values.items()) if v != 0)
        return CoboundaryVerdict(None, (nerve.basis(0).index(key), c.values[key]))
    B = delta_matrix(nerve, k - 1)
    snfB = smith_normal_form(B)
    vec = c.vector(nerve)
    modulus = 2 if c.ring == "Z2" else None
    x, obs = solve_integer(snfB, vec, modulus=modulus)
    if obs is not None:
        return CoboundaryVerdict(None, (int(obs[0]), int(obs[1])))
    primitive = IntCochain.from_vector(nerve, k - 1, x, ring=c.ring)
    check = coboundary(nerve, primitive)
    for s, ci in nerve.basis(k):
        diff = check.get(s, ci) - c.get(s, ci)
        if (diff if modulus is None else diff % modulus) != 0:
            raise VerificationError(f"primitive fails d(b) = c on simplex {s}, component {ci}")
    return CoboundaryVerdict(primitive, None)


# ---------------------------------------------------------------------------
# Cover sanity checks


def check_cover(cover: Cover, rng: np.random.Generator, samples: int = 500) -> None:
    """Sampled invariants: every set lies in the ambient, and sampled ambient
    points are covered by some set."""
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
