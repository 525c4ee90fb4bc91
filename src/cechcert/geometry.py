"""Regions of C^n, the log-modulus exhaustion in closed form, and lattice and
segment scans that tests use as oracles.

Points of C^n are stored as 2n real coordinates (x_1, y_1, ..., x_n, y_n).
Regions are boolean trees of strict scalar inequalities plus a finite bounding
box; all regions are open and membership uses strict comparisons with no
epsilon slack.

Convention for log|z_j| at z_j = 0: evaluation returns -inf (so the
squared-log exhaustion evaluates to +inf there), which makes region membership
total.  The standalone operations ``rho``, ``hessian_block_trace`` and
``hessian_block_det`` raise :class:`DomainError` instead, since their closed
forms are genuinely undefined on the coordinate axes.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "hessian_block_trace",
    "hessian_block_det",
    "grid_components",
    "segment_convexity",
    "up_radius",
]


# ---------------------------------------------------------------------------
# Records and points


class Frozen:
    """An immutable record: its fields are its `__slots__`; it equals only a
    record of its type with equal fields, hashes as their tuple and refuses
    assignment.  No record uses the standard library's record decorator: it
    compiles each method it writes through `exec` at import (0.4 ms a frozen
    class) and loads `inspect`, which every command paid at start.  Each
    sets its fields in a fixed-arity `__init__`, as fast as a generated one."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # fields(): the field values, by one attrgetter call (a bare value for one name)
        get = operator.attrgetter(*cls.__slots__) if cls.__slots__ else lambda self: ()
        cls.fields = (lambda self: (get(self),)) if len(cls.__slots__) == 1 else (lambda self: get(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.fields() == other.fields()

    def __hash__(self) -> int:
        return hash(self.fields())

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):  # for copy and pickle, which would assign the fields
        return type(self), self.fields()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map(repr, self.fields()))})"


class CPoint(Frozen):
    """A point of C^n stored as 2n real coordinates (x_j, y_j)."""

    __slots__ = ("xy",)

    def __init__(self, xy: tuple[float, ...]) -> None:
        if len(xy) < 2 or len(xy) % 2 != 0:
            raise ValueError("CPoint needs an even number >= 2 of real coordinates")
        if not all(map(math.isfinite, xy)):
            raise ValueError("CPoint coordinates must be finite")
        object.__setattr__(self, "xy", xy)

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


class SConst(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        object.__setattr__(self, "value", value)

    def to_jsonable(self):
        return {"op": "const", "value": self.value}


class SX(Frozen):
    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)

    def to_jsonable(self):
        return {"op": "x", "j": self.j}


class SY(Frozen):
    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)

    def to_jsonable(self):
        return {"op": "y", "j": self.j}


class SAbsZ(Frozen):
    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)

    def to_jsonable(self):
        return {"op": "abs_z", "j": self.j}


class SLogAbsZ(Frozen):
    """log|z_j|, evaluating to -inf at z_j = 0."""

    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)

    def to_jsonable(self):
        return {"op": "log_abs_z", "j": self.j}


class SRho(Frozen):
    """Sum over j of (log|z_j|)^2; +inf on the coordinate axes."""

    __slots__ = ()

    def to_jsonable(self):
        return {"op": "rho"}


class SNormSq(Frozen):
    """Sum over j of |z_j|^2."""

    __slots__ = ()

    def to_jsonable(self):
        return {"op": "norm_sq"}


class SSum(Frozen):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple) -> None:
        object.__setattr__(self, "terms", terms)

    def to_jsonable(self):
        return {"op": "sum", "terms": [t.to_jsonable() for t in self.terms]}


class SProd(Frozen):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple) -> None:
        object.__setattr__(self, "factors", factors)

    def to_jsonable(self):
        return {"op": "prod", "factors": [f.to_jsonable() for f in self.factors]}


class SPow(Frozen):
    __slots__ = ("base", "k")

    def __init__(self, base: object, k: int) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "k", k)

    def to_jsonable(self):
        return {"op": "pow", "base": self.base.to_jsonable(), "k": self.k}


# ---------------------------------------------------------------------------
# Constraints (boolean trees of strict inequalities)


class CLt(Frozen):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: object, rhs: object) -> None:
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def to_jsonable(self):
        return {"op": "lt", "lhs": self.lhs.to_jsonable(), "rhs": self.rhs.to_jsonable()}


class CAnd(Frozen):
    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        object.__setattr__(self, "items", items)

    def to_jsonable(self):
        return {"op": "and", "items": [i.to_jsonable() for i in self.items]}


class COr(Frozen):
    __slots__ = ("items",)

    def __init__(self, items: tuple) -> None:
        object.__setattr__(self, "items", items)

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
    kids = [k for v in node.fields() for k in (v if type(v) is tuple else (v,)) if isinstance(k, Frozen)]
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


class Region:
    """An open subset of C^n: a constraint tree plus a finite bounding box.

    Membership is decided by the constraint alone; the bbox is a scanning aid
    and must contain the region (a sampled invariant, not enforced here).
    """

    def __init__(self, name: str, constraint: object, bbox: Sequence) -> None:
        self.name, self.constraint = name, constraint
        # 2n pairs (lo, hi), one per real coordinate
        self.bbox = tuple((float(lo), float(hi)) for lo, hi in bbox)

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
# The exhaustion and the trace and determinant of its Hessian blocks


def rho(z: CPoint) -> float:
    """Sum of squared log-moduli; vanishes exactly on the unit torus."""
    for j in range(z.n):
        if z.z(j) == 0:
            raise DomainError(f"coordinate z_{j + 1} vanishes")
    return float(sum(math.log(abs(z.z(j))) ** 2 for j in range(z.n)))


def hessian_block_trace(zj: complex) -> float:
    """The unscaled Hessian block's trace at z_j: `scenarios.BLOCK_TRACE`, R."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    return zj.real**2 + zj.imag**2


def hessian_block_det(zj: complex) -> float:
    """The unscaled Hessian block's determinant at z_j: `scenarios.BLOCK_DET`,
    R^2 (L - L^2) with R = |z_j|^2 and L = log|z_j|; positive iff 1 < |z_j| < e."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    lg = math.log(abs(zj))
    return (zj.real**2 + zj.imag**2) ** 2 * (lg - lg * lg)


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


class GridLabeling:
    """Connected components of the in-region nodes of a bbox lattice.

    Component ids follow scipy.ndimage.label (1-based); two nodes share an id
    iff they are connected through axis-adjacent in-region nodes.  Each
    component's representative is its first in-region node in C scan order.
    """

    def __init__(self, step: float, origin: np.ndarray, shape: tuple[int, ...], mask: np.ndarray,
                 labels: np.ndarray, n_components: int, representatives: list[CPoint]) -> None:
        self.step, self.origin, self.shape, self.mask = step, origin, shape, mask
        self.labels, self.n_components, self.representatives = labels, n_components, representatives

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


class ConvexityVerdict:
    """Outcome of randomized segment sampling: either no violation in `trials`
    trials, or the first witness (p1, p2, t) with the combination outside."""

    def __init__(self, trials: int, witness: Optional[tuple[CPoint, CPoint, float]] = None) -> None:
        self.trials, self.witness = trials, witness

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
