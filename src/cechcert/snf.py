"""Exact integer linear algebra: invariant factors, and solutions of M x = c.

One sparse elimination serves both: exact row operations clear the +-1 pivots
of M, leaving a remainder of rows with no unit entry, usually empty.  In a
solve every row also carries its provenance, the combination of input rows it
now is, so its right-hand side is provenance . c.  `smith_divisors` returns a
1 per pivot and the divisors of the remainder, from the transpose when M has
more rows than nonzero columns; a solve keeps the rows, as its provenance and
its witness are combinations of rows.  `solve_integer`
back-substitutes through the pivots, or answers "no" with a witness (y, q):
row weights y with y M = 0 and y c != 0 modulo q (q = 0: exactly).  That is
the integer Farkas lemma (Kronecker; Schrijver, Theory of Linear and Integer
Programming, 1986, Cor. 4.1a): then y M x = 0 != y c mod q for every integer
x, and anyone can check it with two products.

Only remainders go to `smith_normal_form`: unimodular U, V with U * M * V
diagonal, d1 | d2 | ..., from one reduction on Python integers (numpy's, but
for the empty one).  It is exact, but with no proven bound on its running
time: small dense inputs (random 7 x 7, entries in +-10) can take minutes.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SNFResult", "pivot_divisors", "smith_divisors", "smith_normal_form", "solve_integer"]


class SNFResult:
    """U, V unimodular (object arrays of Python ints) with U @ M @ V zero
    except for its first len(divisors) diagonal entries, which are the divisors."""

    def __init__(self, U: np.ndarray, V: np.ndarray, divisors: tuple[int, ...]) -> None:
        self.U, self.V, self.divisors = U, V, divisors


def _reduce(A: np.ndarray) -> SNFResult:
    """Reduce an object array of Python ints in place to its Smith form."""
    import numpy as np
    m, n = A.shape
    U = np.eye(m, dtype=object)
    V = np.eye(n, dtype=object)

    def row_add(dst: int, src: int, q) -> None:
        A[dst] -= q * A[src]
        U[dst] -= q * U[src]

    def col_add(dst: int, src: int, q) -> None:
        A[:, dst] -= q * A[:, src]
        V[:, dst] -= q * V[:, src]

    def row_swap(a: int, b: int) -> None:
        A[[a, b]] = A[[b, a]]
        U[[a, b]] = U[[b, a]]

    def col_swap(a: int, b: int) -> None:
        A[:, [a, b]] = A[:, [b, a]]
        V[:, [a, b]] = V[:, [b, a]]

    def row_neg(a: int) -> None:
        A[a] = -A[a]
        U[a] = -U[a]

    t = 0
    while t < min(m, n):
        sub = A[t:, t:]
        nz = np.nonzero(sub)
        if nz[0].size == 0:
            break
        mags = np.abs(sub[nz])
        k = int(np.argmin(mags))
        pi, pj = int(nz[0][k]) + t, int(nz[1][k]) + t
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if A[t, t] < 0:
            row_neg(t)
        # clear row and column t, re-pivoting while remainders appear
        while True:
            done = True
            for i in range(t + 1, m):
                if A[i, t] != 0:
                    q = A[i, t] // A[t, t]
                    row_add(i, t, q)
                    if A[i, t] != 0:
                        row_swap(t, i)
                        if A[t, t] < 0:
                            row_neg(t)
                        done = False
            for j in range(t + 1, n):
                if A[t, j] != 0:
                    q = A[t, j] // A[t, t]
                    col_add(j, t, q)
                    if A[t, j] != 0:
                        col_swap(t, j)
                        if A[t, t] < 0:
                            row_neg(t)
                        done = False
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        rem = A[t + 1 :, t + 1 :]
        if rem.size and A[t, t] != 0:
            bad = np.nonzero(rem % A[t, t])
            if bad[0].size:
                row_add(t, t + 1 + int(bad[0][0]), -1)
                continue
        t += 1
    return SNFResult(U, V, tuple(A[i, i] for i in range(t)))


class _Empty(tuple):
    """The remainder when every line took a +-1 pivot, and the transforms of its
    Smith form, without numpy: an empty tuple numpy reads as a 0 x 0 object array."""

    shape, dtype = (0, 0), object

    def __array__(self, dtype=None, copy=None):
        import numpy as np
        return np.empty((0, 0), dtype=dtype or object)


_EMPTY = _Empty()


def smith_normal_form(M) -> SNFResult:
    """Exact Smith normal form of an integer matrix (any shape, including empty)."""
    if M is _EMPTY:
        return SNFResult(_EMPTY, _EMPTY, ())
    import numpy as np
    M = np.array(M, dtype=object)  # exact: no float64 for rows mixing ints past 2**63 with negatives
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return _reduce(np.frompyfunc(int, 1, 1)(M))


def _rows(M) -> tuple[list[dict[int, int]], int]:
    """{column: entry} rows of a 2-d array, or copies of sparse rows, and the column count."""
    if isinstance(M, list) and all(isinstance(row, dict) for row in M):
        rows = [{j: int(v) for j, v in row.items() if v} for row in M]
        return rows, max(map(max, filter(None, rows)), default=-1) + 1
    import numpy as np
    M = np.array(M, dtype=object)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return [{j: int(v) for j, v in enumerate(row) if v} for row in M.tolist()], M.shape[1]


def _eliminate(rows: list[dict[int, int]], prov: list[dict[int, int]] | None = None):
    """Eliminate +-1 pivots of sparse rows in place, and on their provenance
    rows `prov` if given: the shortest live row pivots on a +-1 entry in the
    shortest column (Markowitz order), and row operations clear that column
    from every other row.  Returns the pivots in order, as {row: (column,
    entry, rest of the row)}, and the leftover rows: their indices, the
    columns they touch, and their dense layout on those columns, as lists
    (`_EMPTY` when no row is left)."""
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots: dict[int, tuple[int, int, dict[int, int]]] = {}
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if size != len(row):
            continue  # changed since it was pushed, or pivoted (emptied)
        # the least (column count, column) among the +-1 entries, in one pass
        j = best = None
        for c, v in row.items():
            if v == 1 or v == -1:
                k = len(cols[c])
                if j is None or k < best or (k == best and c < j):
                    j, best = c, k
        if j is None:
            continue
        rows[i] = {}
        for c in row:
            cols[c].discard(i)
        p = row.pop(j)
        for r in cols.pop(j):
            other = rows[r]
            q = other.pop(j) * p  # other[j] / p, as p = +-1
            for c, v in row.items():
                w = other.get(c, 0) - q * v
                if w:
                    if c not in other:
                        cols[c].add(r)
                    other[c] = w
                else:
                    del other[c]
                    cols[c].discard(r)
            if prov is not None:  # zero weights may stay
                for s, e in prov[i].items():
                    prov[r][s] = prov[r].get(s, 0) - q * e
            heapq.heappush(heap, (len(other), r))
        pivots[i] = (j, p, row)
    left = [i for i, row in enumerate(rows) if row]
    cols = sorted({c for i in left for c in rows[i]})
    return pivots, left, cols, [[rows[i].get(c, 0) for c in cols] for i in left] or _EMPTY


def smith_divisors(M) -> tuple[int, ...]:
    """Nonzero invariant factors of an integer matrix, so the rank is their count.

    M is a 2-d array or a list of sparse rows ({column: entry} dicts), which
    are copied, not changed.  `smith_normal_form` gets the remainder even when
    it is empty, so a trace of it always shows the dense work that remains.
    """
    return pivot_divisors(_rows(M)[0])[0]


def pivot_divisors(rows: list[dict[int, int]]) -> tuple[tuple[int, ...], set[int]]:
    """`smith_divisors` of sparse rows, which may be eliminated in place, and a
    set R of rows that took a +-1 pivot, with M[R, C] unimodular for their
    pivot columns C.  Entries must be nonzero.

    The elimination runs along the short side: when the rows outnumber the
    columns they touch, it eliminates the transpose, one {row: entry} line
    per column, and R is that elimination's set of pivot columns.  Invariant
    factors do not change under transposition, and neither does the
    unimodularity: on either side a line chosen as a pivot has gained only
    multiples of earlier pivot lines, and holds 0 at their pivot positions.
    So a unit-triangular change of the pivot lines, in pivot order, makes the
    pivot block triangular with +-1 on its diagonal, and det M[R, C] = +-1."""
    pivots, R = _unit_pivots(rows)
    return (1,) * len(pivots) + smith_normal_form(R).divisors, set(pivots)


def _unit_pivots(rows: list[dict[int, int]]) -> tuple[dict[int, int], list[list[int]]]:
    """The +-1 pivots of `pivot_divisors`, as {row: column}, and the dense
    remainder, from one `_eliminate` along the short side."""
    if len(rows) <= len(set().union(*rows)):
        pivots, _, _, R = _eliminate(rows)
        return {i: j for i, (j, _, _) in pivots.items()}, R
    lines: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for i, row in enumerate(rows):
        for c, v in row.items():
            lines[c][i] = v
    pivots, _, _, R = _eliminate(list(lines.values()))
    cols = list(lines)
    return {i: cols[x] for x, (i, _, _) in pivots.items()}, R


def solve_integer(M, c, modulus: int | None = None):
    """Solve M x = c exactly over Z, or over Z/2 with modulus=2.

    M is as for `smith_divisors`.  Returns (x, None), with one int in x per
    column of M (for sparse rows, up to the last column they touch), or
    (None, (y, q)): sparse row weights y ({row of M: weight}) with y M = 0 and
    y c != 0 modulo q, which prove that no x exists.  q is 2 over Z/2 (y then
    reduced mod 2).  Over Z, q = 0 (exact) when y is a row that elimination
    reduced to 0 = y c; on the remainder R, y is a row U_t of its Smith
    transform (U_t R = d_t V^-1_t) applied to the rows of R, and q = d_t, or
    0 past the rank of R.
    """
    if modulus not in (None, 2):
        raise ValueError(f"modulus must be None or 2, got {modulus}")
    red = (lambda v: v % 2) if modulus else int
    rows, n = _rows(M)
    c = [int(v) for v in c]
    if len(c) != len(rows):
        raise ValueError(f"right-hand side has {len(c)} entries for {len(rows)} rows")
    prov = [{i: 1} for i in range(len(rows))]
    pivots, left, cols, R = _eliminate(rows, prov)
    rhs = [sum(v * c[r] for r, v in y.items()) for y in prov]

    def witness(y: dict[int, int], q: int):
        return None, ({r: red(v) for r, v in y.items() if red(v)}, modulus or q)

    for i, row in enumerate(rows):
        if not row and i not in pivots and red(rhs[i]):
            return witness(prov[i], 0)
    x = [0] * n
    snf = smith_normal_form(R)
    if R:  # a dense remainder; no pipeline nerve leaves one
        import numpy as np
        w = np.zeros(len(cols), dtype=object)
        for t, v in enumerate(snf.U @ np.array([rhs[i] for i in left], dtype=object)):
            d = snf.divisors[t] if t < len(snf.divisors) else 0
            d = d % 2 if modulus else d  # mod 2 an odd divisor is a unit, an even one 0
            if red(v % d if d else v):
                y: dict[int, int] = {}
                for u, i in zip(snf.U[t], left):
                    for r, e in prov[i].items():
                        y[r] = y.get(r, 0) + u * e
                return witness(y, d)
            if d:
                w[t] = v // d
        for col, v in zip(cols, snf.V @ w):
            x[col] = int(v)
    # a pivot row holds no earlier pivot column, so reverse order is back-substitution
    for i, (j, p, row) in reversed(pivots.items()):
        x[j] = p * (rhs[i] - sum(v * x[col] for col, v in row.items()))
    return [red(v) for v in x], None
