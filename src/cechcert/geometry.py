"""Regions of C^n, the log-modulus exhaustion in closed form, and lattice and
segment scans that tests use as oracles.

Points of C^n are stored as 2n real coordinates (x_1, y_1, ..., x_n, y_n).
Regions are boolean trees of strict scalar inequalities plus a finite bounding
box; all regions are open and membership uses strict comparisons with no
epsilon slack.

Convention for log|z_j| at z_j = 0: evaluation returns -inf (so the
squared-log exhaustion evaluates to +inf there), which makes region membership
total.  The standalone operations ``rho``, ``levi_form`` and ``hessian_block``
raise :class:`DomainError` instead, since their closed forms are genuinely
undefined on the coordinate axes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import DomainError, ResourceError, SamplingError

if TYPE_CHECKING:
    import numpy as np

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
    "conjuncts",
    "reads_y_only",
    "masks",
    "Region",
    "GridLabeling",
    "ConvexityVerdict",
    "rho",
    "levi_form",
    "hessian_block",
    "hessian_block_trace",
    "hessian_block_det",
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
        if not all(map(math.isfinite, self.xy)):
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

    def to_complex(self) -> tuple[complex, ...]:
        return tuple(map(complex, self.xy[0::2], self.xy[1::2]))


# ---------------------------------------------------------------------------
# Scalar expressions


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


def conjuncts(node) -> tuple:
    """The conjuncts of a constraint: the items of its nested And nodes, in
    order, or the constraint itself when it is no And."""
    if type(node) is not CAnd:
        return (node,)
    return tuple(c for item in node.items for c in conjuncts(item))


def reads_y_only(node) -> bool:
    """Whether every leaf of a tree is a constant or a y_j."""
    kids = [k for v in vars(node).values() for k in (v if type(v) is tuple else (v,))]
    kids = [k for k in kids if hasattr(k, "to_jsonable")]
    return all(map(reads_y_only, kids)) if kids else type(node) in (SConst, SY)


# Evaluation.  A tree compiles once per Region into closures of a point's
# features [rho, |z|^2, x_1, y_1, ..., y_n, |z_1|, ..., |z_n|, log|z_1|, ...,
# log|z_n|], with numpy's bits (hypot, v * v, sums and products in order from
# 0 and 1) but for the last bit of a log, or of |z|^2 past 7 coordinates.

_ABS, _LOG, _RHO, _NSQ = 1, 2, 4, 8  # the features a tree reads beyond x and y
# a leaf reads feature a + b n + c j, and the features `reads`
_LEAVES = {
    SX: (2, 0, 2, 0), SY: (3, 0, 2, 0), SAbsZ: (2, 2, 1, _ABS), SLogAbsZ: (2, 3, 1, _ABS | _LOG),
    SRho: (0, 0, 0, _ABS | _LOG | _RHO), SNormSq: (1, 0, 0, _NSQ),
}


def _compile(e, n: int, batch: bool = False):
    """(v, reads) for a tree on C^n: v is a float for a constant, (i, k) for k
    times feature i (k = 1.0: exactly the feature), else a closure of a
    point's features (of numpy arrays with batch); reads: the feature bits."""
    t = type(e)
    if t is SConst:
        return float(e.value), 0
    leaf = _LEAVES.get(t)
    if leaf is not None:
        a, b, c, reads = leaf
        j = getattr(e, "j", 0)
        if not 0 <= j < n:
            raise ValueError(f"a tree on C^{n} reads z_{j + 1}")
        return (a + b * n + c * j, 1.0), reads
    if t is SPow:
        (base, reads), k = _compile(e.base, n, batch), e.k
        if type(base) is float:
            return _power(base, k), 0
        f = _closure(base)
        return (lambda p: _power(f(p), k)), reads
    if t is SSum or t is SProd:
        add = t is SSum
        acc, vs, reads = (0.0 if add else 1.0), [], 0
        for item in e.terms if add else e.factors:
            v, r = _compile(item, n, batch)
            reads |= r
            if vs or type(v) is not float:
                vs.append(v)
            else:  # a leading constant, folded in numpy's order
                acc = acc + v if add else acc * v
        if not vs:
            return acc, 0
        if not add and len(vs) == 1 and type(vs[0]) is tuple and vs[0][1] == 1.0:
            return (vs[0][0], acc), reads
        op, fs = (operator.add if add else operator.mul), list(map(_closure, vs))

        def fold(p):
            v = acc
            for f in fs:
                v = op(v, f(p))
            return v

        return fold, reads
    if t is CLt:
        (lhs, r1), (rhs, r2) = _compile(e.lhs, n, batch), _compile(e.rhs, n, batch)
        return _less(lhs, rhs), r1 | r2
    if t is CAnd or t is COr:
        parts = [_compile(item, n, batch) for item in e.items]
        fs, last = [f for f, _ in parts], t is CAnd
        reads = functools.reduce(operator.or_, (r for _, r in parts), 0)
        if batch:  # whole masks, combined item by item
            op = operator.and_ if last else operator.or_
            return (lambda p: functools.reduce(op, (f(p) for f in fs), last)), reads

        def decide(p):
            # And fails at its first false item, Or holds at its first true one
            for f in fs:
                if (not f(p)) is last:
                    return not last
            return last

        return decide, reads
    raise TypeError(f"cannot evaluate {t.__name__}")


def _closure(v):
    """A compiled expression (`_compile`) as a closure of a point's features."""
    if type(v) is tuple:
        i, k = v
        return operator.itemgetter(i) if k == 1.0 else (lambda p: k * p[i])
    return (lambda p: v) if type(v) is float else v


def _less(lhs, rhs):
    """The closure of lhs < rhs for compiled sides, inline for scaled features
    and constant bounds; NaN compares false, so an undefined side excludes."""
    if type(lhs) is tuple and type(rhs) is tuple:
        (i, a), (j, b) = lhs, rhs
        return (lambda p: a * p[i] < p[j]) if b == 1.0 else (lambda p: a * p[i] < b * p[j])
    if type(lhs) is tuple and type(rhs) is float:
        i, a = lhs
        return (lambda p: p[i] < rhs) if a == 1.0 else (lambda p: a * p[i] < rhs)
    f, g = _closure(lhs), _closure(rhs)
    return lambda p: f(p) < g(p)


def _power(v: float, k: int) -> float:
    """v ** k, or numpy's inf where Python raises (overflow, 0 to a negative power)."""
    try:
        return v * v if k == 2 else v**k
    except (OverflowError, ZeroDivisionError):
        return math.copysign(math.inf, v) if k % 2 else math.inf


def _modulus(x: float, y: float) -> float:
    """|x + iy| by libm's hypot, as numpy's; inf past the largest float."""
    try:
        return abs(complex(x, y))
    except OverflowError:
        return math.inf


def _feature_columns(cols: list, reads: int, hypot, log, add_squares, zero) -> list:
    """The features of the layout above that `reads` asks for (zero where
    unread), column by column, from the coordinate columns x_1, y_1, ...:
    lists of floats, or numpy arrays in `grid_components`, which passes
    numpy's hypot and log; add_squares(acc, col) is acc + col * col."""
    moduli = [hypot(x, y) for x, y in zip(cols[0::2], cols[1::2])] if reads & _ABS else []
    logs = list(map(log, moduli)) if reads & _LOG else []
    rho = functools.reduce(add_squares, logs, zero) if reads & _RHO else zero
    nsq = functools.reduce(add_squares, cols, zero) if reads & _NSQ else zero
    return [rho, nsq, *cols, *moduli, *logs]


def _features(pts, reads: int, d: int) -> list[tuple]:
    """The features that `reads` asks for of each point (rows of d floats, or
    an (m, d) array), one tuple per point."""
    if hasattr(pts, "tolist"):
        pts = pts.tolist()  # an array's rows, as Python floats
    if any(len(p) != d for p in pts):
        raise ValueError(f"a point without the {d} real coordinates of its region")
    cols = _feature_columns(  # log 0 = -inf as numpy's, and (-inf)^2 = +inf on the axes
        list(zip(*pts)), reads, lambda x, y: list(map(_modulus, x, y)),
        lambda col: [math.log(a) if a else -math.inf for a in col],
        lambda acc, col: [a + v * v for a, v in zip(acc, col)], [0.0] * len(pts),
    )
    return list(zip(*cols))


def masks(regions: Sequence["Region"], pts) -> list[list[bool]]:
    """The `Region.mask` of each region on one batch of points; the regions
    lie in one C^n, and each point's features are computed once for all."""
    (d,) = {r.dim2n for r in regions}
    feats = _features(pts, functools.reduce(operator.or_, (r._compiled[1] for r in regions), 0), d)
    return [r.mask(pts, feats) for r in regions]


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
    bbox: tuple  # 2n pairs (lo, hi), one per real coordinate

    def __post_init__(self) -> None:
        self.bbox = tuple((float(lo), float(hi)) for lo, hi in self.bbox)

    @property
    def dim2n(self) -> int:
        return len(self.bbox)

    @functools.cached_property
    def _compiled(self):
        return _compile(self.constraint, self.dim2n // 2)

    def contains(self, p: CPoint) -> bool:
        """Strict membership; points on a defining hypersurface are outside."""
        test, reads = self._compiled
        return test(_features((p.xy,), reads, self.dim2n)[0])

    def mask(self, pts, feats: Optional[list[tuple]] = None) -> list[bool]:
        """`contains` of each point (rows of 2n floats, or an (m, 2n) array);
        feats: their features, where `masks` computed them for several regions."""
        test, reads = self._compiled
        return list(map(test, _features(pts, reads, self.dim2n) if feats is None else feats))

    def intersect(self, other: "Region", name: Optional[str] = None) -> "Region":
        bbox = [(max(a, c), max(a, c, min(b, d))) for (a, b), (c, d) in zip(self.bbox, other.bbox)]
        return Region(
            name or f"{self.name}&{other.name}",
            CAnd((self.constraint, other.constraint)),
            bbox,
        )

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection-sample `count` in-region points; deterministic given rng state."""
        import numpy as np
        lo, hi = np.asarray(self.bbox).T
        got: list[np.ndarray] = []
        total = 0
        for _ in range(2000):  # batches of candidates before giving up
            cand = rng.uniform(lo, hi, size=(max(256, count), self.dim2n))
            good = cand[np.asarray(self.mask(cand), dtype=bool)]
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
            "bbox": [list(b) for b in self.bbox],
        }


def ball_region(center: Sequence[float], radius: float, name: str = "ball") -> Region:
    """Open euclidean ball in R^{2n} around `center` (given in xy coordinates)."""
    center = tuple(float(c) for c in center)
    terms = []
    for i, c in enumerate(center):
        coord = SX(i // 2) if i % 2 == 0 else SY(i // 2)
        terms.append(SPow(SSum((SConst(-c), coord)) if c else coord, 2))
    constraint = CLt(SSum(tuple(terms)), SConst(radius * radius))
    return Region(name, constraint, [(c - radius, c + radius) for c in center])


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
    if len(w) != z.n:
        raise ValueError("tangent vector has wrong length")
    total = 0.0
    for wj, zj in zip(w, z.to_complex()):
        a, b = abs(complex(wj)), abs(zj)
        total += a * a / (2.0 * (b * b))
    return total


def hessian_block(zj: complex) -> tuple[tuple[float, float], tuple[float, float]]:
    """Unscaled 2x2 Hessian block for one coordinate (scale is 2/|z_j|^4), as rows."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    x, y = zj.real, zj.imag
    lg = math.log(abs(zj))
    return (
        ((y * y - x * x) * lg + x * x, x * y * (1.0 - 2.0 * lg)),
        (x * y * (1.0 - 2.0 * lg), (x * x - y * y) * lg + y * y),
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
        fd = (
            ((f(1, 0) + f(-1, 0) - 2.0 * f0) / (h * h), mixed),
            (mixed, (f(0, 1) + f(0, -1) - 2.0 * f0) / (h * h)),
        )
        scale, block = 2.0 / abs(z.z(j)) ** 4, hessian_block(z.z(j))
        worst = max(worst, *(abs(fd[a][b] - scale * block[a][b]) for a in (0, 1) for b in (0, 1)))
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
    room = min(math.e - m, m - 1.0)
    radius = safety * room
    if not radius > 0.0:
        raise DomainError(
            f"safety = {safety:g} is too small at n = {n}, epsilon = {eps:g}: the U_p radius "
            f"{safety:g} x {room:g} underflows to {radius}; raise --safety"
            if room > 0.0
            else f"epsilon = {eps} is too small at n = {n}: the U_p radius is {radius}"
        )
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
        return math.prod(self.shape)

    @property
    def n_in_region(self) -> int:
        return int(self.mask.sum())


def grid_components(region: Region, step: float, budget: int = 10_000_000) -> GridLabeling:
    """Scan the region bbox lattice and label axis-connected in-region components;
    the tree is evaluated on numpy arrays (`_compile` with batch), one slab at a time."""
    import numpy as np
    if step <= 0.0:
        raise ValueError("step must be positive")
    lo, hi = np.asarray(region.bbox).T
    if not np.all(np.isfinite([lo, hi])):
        raise ValueError("region bbox must be finite")
    counts = np.floor((hi - lo) / step + 1e-9).astype(int) + 1
    total = int(np.prod(counts.astype(object)))
    if total > budget:
        raise ResourceError(f"lattice of {total} nodes exceeds budget {budget}")
    axes = [lo[i] + step * np.arange(counts[i]) for i in range(len(counts))]
    shape = tuple(int(c) for c in counts)
    test, reads = _compile(region.constraint, len(shape) // 2, batch=True)
    grid = np.meshgrid(*axes, indexing="ij", sparse=True)
    mask = np.empty(shape, dtype=bool)
    with np.errstate(all="ignore"):
        for i0 in range(shape[0]):
            xy = [grid[0][i0], *(g[0] for g in grid[1:])]  # the slab's coordinates, broadcastable
            mask[i0] = test(_feature_columns(xy, reads, np.hypot, np.log, lambda a, v: a + v * v, 0.0))
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
    import numpy as np
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    p1 = region.sample(trials, rng)
    p2 = region.sample(trials, rng)
    t = rng.uniform(0.0, 1.0, size=trials)
    mids = t[:, None] * p1 + (1.0 - t)[:, None] * p2
    bad = [i for i, ok in enumerate(region.mask(mids)) if not ok]
    if bad:
        i = bad[0]
        return ConvexityVerdict(
            trials, (CPoint(tuple(p1[i])), CPoint(tuple(p2[i])), float(t[i]))
        )
    return ConvexityVerdict(trials)
