"""Regions of C^n, the log-modulus exhaustion in closed form, and lattice and
segment scans that tests use as oracles.

Points of C^n are stored as 2n real coordinates (x_1, y_1, ..., x_n, y_n).
Regions are boolean trees of strict scalar inequalities plus a finite bounding
box; all regions are open and membership uses strict comparisons with no
epsilon slack.

Convention for log|z_j| at z_j = 0: scalar evaluation returns -inf (so the
squared-log exhaustion evaluates to +inf there), which makes region membership
total.  The standalone operations ``rho``, ``levi_form`` and ``real_hessian``
raise :class:`DomainError` instead, since their closed forms are genuinely
undefined on the coordinate axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceError, SamplingError

__all__ = [
    "CPoint",
    "SConst",
    "SX",
    "SY",
    "SAbsZ",
    "SLogAbsZ",
    "SRho",
    "SNormSq",
    "SSum",
    "SProd",
    "SPow",
    "CLt",
    "CAnd",
    "COr",
    "evaluate",
    "Region",
    "GridLabeling",
    "ConvexityVerdict",
    "rho",
    "levi_form",
    "hessian_block",
    "hessian_block_trace",
    "hessian_block_det",
    "real_hessian",
    "hessian_fd_residual",
    "grid_components",
    "segment_convexity",
    "up_radius",
]


# ---------------------------------------------------------------------------
# Points


@dataclass(frozen=True)
class CPoint:
    """A point of C^n stored as 2n real coordinates (x_j, y_j)."""

    xy: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xy) < 2 or len(self.xy) % 2 != 0:
            raise ValueError("CPoint needs an even number >= 2 of real coordinates")
        if not all(math.isfinite(v) for v in self.xy):
            raise ValueError("CPoint coordinates must be finite")

    @property
    def n(self) -> int:
        return len(self.xy) // 2

    @classmethod
    def from_complex(cls, zs: Sequence[complex]) -> "CPoint":
        xy: list[float] = []
        for z in zs:
            z = complex(z)
            xy.extend((z.real, z.imag))
        return cls(tuple(xy))

    def z(self, j: int) -> complex:
        """The j-th complex coordinate (0-based)."""
        return complex(self.xy[2 * j], self.xy[2 * j + 1])

    def to_complex(self) -> np.ndarray:
        a = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        return a[:, 0] + 1j * a[:, 1]

    def row(self) -> np.ndarray:
        return np.asarray(self.xy, dtype=float).reshape(1, -1)


# ---------------------------------------------------------------------------
# Scalar expressions; `evaluate` computes them in batch on (m, 2n) coordinate
# arrays


@dataclass(frozen=True)
class SConst:
    value: float

    def to_jsonable(self):
        return {"op": "const", "value": self.value}


@dataclass(frozen=True)
class SX:
    j: int

    def to_jsonable(self):
        return {"op": "x", "j": self.j}


@dataclass(frozen=True)
class SY:
    j: int

    def to_jsonable(self):
        return {"op": "y", "j": self.j}


@dataclass(frozen=True)
class SAbsZ:
    j: int

    def to_jsonable(self):
        return {"op": "abs_z", "j": self.j}


@dataclass(frozen=True)
class SLogAbsZ:
    """log|z_j|, evaluating to -inf at z_j = 0."""

    j: int

    def to_jsonable(self):
        return {"op": "log_abs_z", "j": self.j}


@dataclass(frozen=True)
class SRho:
    """Sum over j of (log|z_j|)^2; +inf on the coordinate axes."""

    def to_jsonable(self):
        return {"op": "rho"}


@dataclass(frozen=True)
class SNormSq:
    """Sum over j of |z_j|^2."""

    def to_jsonable(self):
        return {"op": "norm_sq"}


@dataclass(frozen=True)
class SSum:
    terms: tuple

    def to_jsonable(self):
        return {"op": "sum", "terms": [t.to_jsonable() for t in self.terms]}


@dataclass(frozen=True)
class SProd:
    factors: tuple

    def to_jsonable(self):
        return {"op": "prod", "factors": [f.to_jsonable() for f in self.factors]}


@dataclass(frozen=True)
class SPow:
    base: object
    k: int

    def to_jsonable(self):
        return {"op": "pow", "base": self.base.to_jsonable(), "k": self.k}


# ---------------------------------------------------------------------------
# Constraints (boolean trees of strict inequalities)


@dataclass(frozen=True)
class CLt:
    lhs: object
    rhs: object

    def to_jsonable(self):
        return {"op": "lt", "lhs": self.lhs.to_jsonable(), "rhs": self.rhs.to_jsonable()}


@dataclass(frozen=True)
class CAnd:
    items: tuple

    def to_jsonable(self):
        return {"op": "and", "items": [i.to_jsonable() for i in self.items]}


@dataclass(frozen=True)
class COr:
    items: tuple

    def to_jsonable(self):
        return {"op": "or", "items": [i.to_jsonable() for i in self.items]}


def evaluate(node, pts: np.ndarray) -> np.ndarray:
    """Values of an expression, or the mask of a constraint, on a batch of
    (m, 2n) coordinates.

    |z_j|, log|z_j| and the exhaustion are computed once per batch however
    many branches use them: they are memoised under per-coordinate keys and
    under the (frozen, hence hashable) SRho node.  And and Or combine
    full-length masks and stop early once every point is decided.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _value(node, pts, {})


def _abs_z(j: int, pts: np.ndarray, memo: dict) -> np.ndarray:
    out = memo.get(("abs", j))
    if out is None:
        out = memo[("abs", j)] = np.hypot(pts[:, 2 * j], pts[:, 2 * j + 1])
    return out


def _log_abs_z(j: int, pts: np.ndarray, memo: dict) -> np.ndarray:
    out = memo.get(("log", j))
    if out is None:
        out = memo[("log", j)] = np.log(_abs_z(j, pts, memo))
    return out


def _value(e, pts: np.ndarray, memo: dict) -> np.ndarray:
    # Dispatch on the exact node type: identity tests cost a fraction of a
    # class-pattern `match`, and Region.contains evaluates whole trees on
    # single points.
    t, m = type(e), pts.shape[0]
    if t is CLt:
        # NaN compares false, so an undefined side excludes the point.
        return _value(e.lhs, pts, memo) < _value(e.rhs, pts, memo)
    if t is CAnd:
        out = np.ones(m, dtype=bool)
        for it in e.items:
            out &= _value(it, pts, memo)
            if not out.any():
                break
        return out
    if t is COr:
        out = np.zeros(m, dtype=bool)
        for it in e.items:
            out |= _value(it, pts, memo)
            if out.all():
                break
        return out
    if t is SConst:
        return np.full(m, e.value)
    if t is SX:
        return pts[:, 2 * e.j]
    if t is SY:
        return pts[:, 2 * e.j + 1]
    if t is SAbsZ:
        return _abs_z(e.j, pts, memo)
    if t is SLogAbsZ:
        return _log_abs_z(e.j, pts, memo)
    if t is SSum:
        out = np.zeros(m)
        for term in e.terms:
            out += _value(term, pts, memo)
        return out
    if t is SProd:
        out = np.ones(m)
        for f in e.factors:
            out *= _value(f, pts, memo)
        return out
    if t is SPow:
        return _value(e.base, pts, memo) ** e.k
    if t is SRho:
        out = memo.get(e)
        if out is None:
            # (-inf)^2 = +inf on the coordinate axes
            out = memo[e] = np.zeros(m)
            for j in range(pts.shape[1] // 2):
                lg = _log_abs_z(j, pts, memo)
                out += lg * lg
        return out
    if t is SNormSq:
        return np.sum(pts * pts, axis=1)
    raise TypeError(f"cannot evaluate {t.__name__}")


# ---------------------------------------------------------------------------
# Regions


@dataclass
class Region:
    """An open subset of C^n: a constraint tree plus a finite bounding box.

    Membership is decided by the constraint alone; the bbox is a scanning aid
    and must contain the region (a sampled invariant, not enforced here).
    """

    name: str
    constraint: object
    bbox: np.ndarray  # shape (2n, 2): [lo, hi] per real coordinate

    def __post_init__(self) -> None:
        self.bbox = np.asarray(self.bbox, dtype=float)
        if self.bbox.ndim != 2 or self.bbox.shape[1] != 2:
            raise ValueError("bbox must have shape (2n, 2)")

    @property
    def dim2n(self) -> int:
        return self.bbox.shape[0]

    def contains(self, p: CPoint) -> bool:
        """Strict membership; points on a defining hypersurface are outside."""
        return bool(evaluate(self.constraint, p.row())[0])

    def mask(self, pts: np.ndarray) -> np.ndarray:
        return evaluate(self.constraint, np.asarray(pts, dtype=float))

    def intersect(self, other: "Region", name: Optional[str] = None) -> "Region":
        lo = np.maximum(self.bbox[:, 0], other.bbox[:, 0])
        hi = np.minimum(self.bbox[:, 1], other.bbox[:, 1])
        bbox = np.stack([lo, np.maximum(lo, hi)], axis=1)
        return Region(
            name or f"{self.name}&{other.name}",
            CAnd((self.constraint, other.constraint)),
            bbox,
        )

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample `count` in-region points; deterministic given rng state."""
        lo, hi = self.bbox[:, 0], self.bbox[:, 1]
        got: list[np.ndarray] = []
        total = 0
        for _ in range(2000):  # batches of candidates before giving up
            cand = rng.uniform(lo, hi, size=(max(256, count), self.dim2n))
            good = cand[self.mask(cand)]
            if good.shape[0]:
                got.append(good)
                total += good.shape[0]
            if total >= count:
                return np.concatenate(got, axis=0)[:count]
        raise SamplingError(f"could not sample {count} points of region {self.name!r}")

    def to_jsonable(self):
        return {
            "name": self.name,
            "constraint": self.constraint.to_jsonable(),
            "bbox": self.bbox.tolist(),
        }


def ball_region(center: Sequence[float], radius: float, name: str = "ball") -> Region:
    """Open euclidean ball in R^{2n} around `center` (given in xy coordinates)."""
    center = tuple(float(c) for c in center)
    dim = len(center)
    terms = []
    for i, c in enumerate(center):
        coord = SX(i // 2) if i % 2 == 0 else SY(i // 2)
        terms.append(SPow(SSum((SConst(-c), coord)) if c else coord, 2))
    constraint = CLt(SSum(tuple(terms)), SConst(radius * radius))
    bbox = np.array([[c - radius, c + radius] for c in center])
    return Region(name, constraint, bbox)


# ---------------------------------------------------------------------------
# The exhaustion, its Levi form and real Hessian


def _check_off_axes(z: CPoint) -> None:
    for j in range(z.n):
        if z.z(j) == 0:
            raise DomainError(f"coordinate z_{j + 1} vanishes")


def rho(z: CPoint) -> float:
    """Sum of squared log-moduli; vanishes exactly on the unit torus."""
    _check_off_axes(z)
    return float(sum(math.log(abs(z.z(j))) ** 2 for j in range(z.n)))


def levi_form(z: CPoint, w: Sequence[complex]) -> float:
    """Complex Hessian of the exhaustion applied to tangent vector w."""
    _check_off_axes(z)
    w = np.asarray(w, dtype=complex)
    if w.shape != (z.n,):
        raise ValueError("tangent vector has wrong length")
    zs = z.to_complex()
    return float(np.sum(np.abs(w) ** 2 / (2.0 * np.abs(zs) ** 2)))


def hessian_block(zj: complex) -> np.ndarray:
    """Unscaled 2x2 Hessian block for one coordinate (scale is 2/|z_j|^4)."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    x, y = zj.real, zj.imag
    lg = math.log(abs(zj))
    return np.array(
        [
            [(y * y - x * x) * lg + x * x, x * y * (1.0 - 2.0 * lg)],
            [x * y * (1.0 - 2.0 * lg), (x * x - y * y) * lg + y * y],
        ]
    )


def hessian_block_trace(zj: complex) -> float:
    """Closed-form trace of the unscaled block: x^2 + y^2."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    return zj.real**2 + zj.imag**2


def hessian_block_det(zj: complex) -> float:
    """Closed-form determinant of the unscaled block.

    Equals (x^2 + y^2)^2 * (log|z| - (log|z|)^2); positive iff |z| in (1, e).
    """
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    lg = math.log(abs(zj))
    return (zj.real**2 + zj.imag**2) ** 2 * (lg - lg * lg)


def real_hessian(z: CPoint) -> np.ndarray:
    """The 2n x 2n real Hessian of the exhaustion: block diagonal, n 2x2 blocks."""
    _check_off_axes(z)
    n = z.n
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        zj = z.z(j)
        scale = 2.0 / abs(zj) ** 4
        H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = scale * hessian_block(zj)
    return H


def hessian_fd_residual(z: CPoint, h: float) -> float:
    """Max entry difference between the closed-form Hessian and central differences.

    rho is a sum of per-coordinate terms, so its off-block second partials
    vanish identically; each 2x2 block is differenced on its own coordinate's
    term (log|z_j|)^2 alone, O(n) in all.
    """
    if h <= 0.0:
        raise DomainError("finite-difference step must be positive")
    for j in range(z.n):
        if abs(z.z(j)) <= 2.0 * h:
            raise DomainError("point too close to a coordinate axis for the given step")
    worst = 0.0
    for j in range(z.n):
        x, y = z.xy[2 * j], z.xy[2 * j + 1]

        def f(a: float, b: float) -> float:
            return math.log(math.hypot(x + a * h, y + b * h)) ** 2

        f0 = f(0, 0)
        mixed = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * h * h)
        fd = np.array(
            [
                [(f(1, 0) + f(-1, 0) - 2.0 * f0) / (h * h), mixed],
                [mixed, (f(0, 1) + f(0, -1) - 2.0 * f0) / (h * h)],
            ]
        )
        closed = 2.0 / abs(z.z(j)) ** 4 * hessian_block(z.z(j))
        worst = max(worst, float(np.max(np.abs(fd - closed))))
    return worst


def up_radius(n: int, eps: float, safety: float) -> float:
    """Radius of a ball about the diagonal boundary point that stays inside the
    coordinate-wise modulus window (1, e) where every Hessian block is definite."""
    if not (0.0 < eps < n):
        raise DomainError(
            f"no positive-definite boundary point exists for eps={eps} >= n={n}"
            if eps >= n
            else "eps must be positive"
        )
    if not (0.0 < safety < 1.0):
        raise ValueError("safety factor must lie in (0, 1)")
    m = math.exp(math.sqrt(eps / n))
    radius = safety * min(math.e - m, m - 1.0)
    if not radius > 0.0:
        raise DomainError(f"epsilon = {eps} is too small at n = {n}: the U_p radius is {radius}")
    return radius


# ---------------------------------------------------------------------------
# Grid connectivity


@dataclass
class GridLabeling:
    """Connected components of the in-region nodes of a bbox lattice.

    Component ids follow scipy.ndimage.label (1-based); two nodes share an id
    iff they are connected through axis-adjacent in-region nodes.  Each
    component's representative is its first in-region node in C scan order.
    """

    step: float
    origin: np.ndarray
    shape: tuple[int, ...]
    mask: np.ndarray
    labels: np.ndarray
    n_components: int
    representatives: list[CPoint]

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_in_region(self) -> int:
        return int(self.mask.sum())


def grid_components(region: Region, step: float, budget: int = 10_000_000) -> GridLabeling:
    """Scan the region bbox lattice and label axis-connected in-region components."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    lo, hi = region.bbox[:, 0], region.bbox[:, 1]
    if not np.all(np.isfinite(region.bbox)):
        raise ValueError("region bbox must be finite")
    counts = np.floor((hi - lo) / step + 1e-9).astype(int) + 1
    total = int(np.prod(counts.astype(object)))
    if total > budget:
        raise ResourceError(f"lattice of {total} nodes exceeds budget {budget}")
    axes = [lo[i] + step * np.arange(counts[i]) for i in range(len(counts))]
    shape = tuple(int(c) for c in counts)
    mask = np.empty(shape, dtype=bool)
    if len(shape) == 1:
        pts = axes[0].reshape(-1, 1)
        mask[:] = region.mask(pts)
    else:
        rest = np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, len(shape) - 1)
        buf = np.empty((rest.shape[0], len(shape)))
        buf[:, 1:] = rest
        for i0 in range(shape[0]):
            buf[:, 0] = axes[0][i0]
            mask[i0] = region.mask(buf).reshape(shape[1:])
    from scipy import ndimage  # not at module load: it adds ~0.3 s to every command's start

    labels, n_comp = ndimage.label(mask)
    # first in-region node of each component in C scan order, read off the
    # axis-0 slabs in turn until every component has been met
    first: dict[int, tuple[int, ...]] = {}
    slabs = labels.reshape(shape[0], -1)
    for i0 in range(shape[0]):
        if len(first) == n_comp:
            break
        ids, pos = np.unique(slabs[i0], return_index=True)
        for lab, p in zip(ids.tolist(), pos.tolist()):
            if lab and lab not in first:
                first[lab] = (i0, *np.unravel_index(p, shape[1:]))
    reps = [
        CPoint(tuple(lo + step * np.asarray(first[lab], dtype=float)))
        for lab in range(1, n_comp + 1)
    ]
    return GridLabeling(step, lo.copy(), shape, mask, labels, int(n_comp), reps)


# ---------------------------------------------------------------------------
# Segment convexity


@dataclass(frozen=True)
class ConvexityVerdict:
    """Outcome of randomized segment sampling: either no violation in `trials`
    trials, or the first witness (p1, p2, t) with the combination outside."""

    trials: int
    witness: Optional[tuple[CPoint, CPoint, float]] = None

    @property
    def ok(self) -> bool:
        return self.witness is None

    def to_jsonable(self):
        out = {"trials": self.trials, "violation": not self.ok}
        if self.witness is not None:
            p1, p2, t = self.witness
            out["witness"] = {"p1": list(p1.xy), "p2": list(p2.xy), "t": t}
        return out


def segment_convexity(region: Region, trials: int, seed: int) -> ConvexityVerdict:
    """Sample point pairs and interior parameters; report the first violation."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    p1 = region.sample(trials, rng)
    p2 = region.sample(trials, rng)
    t = rng.uniform(0.0, 1.0, size=trials)
    mids = t[:, None] * p1 + (1.0 - t)[:, None] * p2
    ok = region.mask(mids)
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = int(bad[0])
        return ConvexityVerdict(
            trials, (CPoint(tuple(p1[i])), CPoint(tuple(p2[i])), float(t[i]))
        )
    return ConvexityVerdict(trials)
