"""The numpy batch evaluator that `Region.mask` used to run: a cross-check
oracle for geometry's compiled pure-Python evaluator, which must give the
same mask on every batch."""

import numpy as np

from cechcert.geometry import CAnd, CLt, COr, SAbsZ, SConst, SLogAbsZ, SNormSq, SPow, SProd, SRho, SSum, SX, SY


def mask(region, pts) -> list[bool]:
    """The region's mask on an (m, 2n) batch, as a list of bools."""
    return evaluate(region.constraint, np.asarray(pts, dtype=float)).tolist()


def evaluate(node, pts: np.ndarray) -> np.ndarray:
    """Values of an expression, or the mask of a constraint, on a batch of
    (m, 2n) coordinates.

    |z_j|, log|z_j| and the exhaustion are computed once per batch however
    many branches use them: they are memoised under per-coordinate keys and
    under the (frozen, hence hashable) SRho node.  And and Or combine
    full-length masks and stop early once every point is decided.
    """
    with np.errstate(all="ignore"):
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
