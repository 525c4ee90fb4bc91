"""Exact Smith normal form of integer matrices, with the transforms tracked.

`smith_divisors` returns the invariant factors alone, of a dense matrix or of
sparse rows.  It first eliminates the +-1 pivots with exact row operations,
then hands what is left to `smith_normal_form`.

The tracked reduction keeps U * M * V equal to the working matrix at every
step, with U and V unimodular; it ends diagonal, with nonzero entries
satisfying the divisibility chain d1 | d2 | ...  Pivoting always selects a
smallest-magnitude nonzero entry, which keeps coefficient growth tame on
incidence-style matrices.

Arithmetic runs on int64 with an overflow guard; if any intermediate value
approaches the guard bound the whole reduction restarts on Python integers
(numpy object dtype), so no value overflows.  A result, once returned, is
exact, but the reduction has no proven bound on its entries or its number of
steps: on small dense inputs (random 7 x 7 with entries in +-10) it can run
for minutes.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

__all__ = ["SNFResult", "smith_divisors", "smith_normal_form", "solve_integer"]

_GUARD = 1 << 20


@dataclass
class SNFResult:
    """U, V unimodular with U @ M @ V zero except for its first rank diagonal
    entries, which are the divisors."""

    U: np.ndarray
    V: np.ndarray
    rank: int
    divisors: tuple[int, ...]


class _Overflow(Exception):
    pass


def _reduce(M: np.ndarray, guard: bool) -> SNFResult:
    A = M.copy()
    m, n = A.shape
    dt = A.dtype
    U = np.eye(m, dtype=dt)
    V = np.eye(n, dtype=dt)

    def check() -> None:
        if guard and max(
            (np.abs(A).max(initial=0), np.abs(U).max(initial=0), np.abs(V).max(initial=0))
        ) > _GUARD:
            raise _Overflow

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
            check()
            if done:
                break
        # enforce divisibility of the remaining block by the pivot
        rem = A[t + 1 :, t + 1 :]
        if rem.size and A[t, t] != 0:
            bad = np.nonzero(rem % A[t, t])
            if bad[0].size:
                row_add(t, t + 1 + int(bad[0][0]), dt.type(-1) if dt != object else -1)
                continue
        t += 1
    return SNFResult(U, V, t, tuple(int(A[i, i]) for i in range(t)))


def smith_normal_form(M) -> SNFResult:
    """Exact Smith normal form of an integer matrix (any shape, including empty)."""
    M = np.asarray(M)
    if M.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    try:
        Mi = M.astype(np.int64)
        if not np.array_equal(Mi, M):
            raise _Overflow
        return _reduce(Mi, guard=True)
    except (_Overflow, OverflowError):
        Mo = np.empty(M.shape, dtype=object)
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                Mo[i, j] = int(M[i, j])
        return _reduce(Mo, guard=False)


def smith_divisors(M) -> tuple[int, ...]:
    """Nonzero invariant factors of an integer matrix, so the rank is their count.

    M is a 2-d array or a list of sparse rows ({column: entry} dicts), which
    are copied, not changed.  The shortest live row goes first and pivots on
    its +-1 entry in the shortest column (Markowitz order); exact row
    operations clear that column from every other row, so the matrix splits as
    1 (+) the rest.  A row with no +-1 entry waits until fill-in gives it one.
    The rows left over go to `smith_normal_form`, restricted to the columns
    they touch.  That call is made even when nothing is left, so a trace of
    `smith_normal_form` always shows the dense work that remains.
    """
    if isinstance(M, list) and all(isinstance(row, dict) for row in M):
        rows = [{j: int(v) for j, v in row.items() if v} for row in M]
    else:
        M = np.asarray(M)
        if M.ndim != 2:
            raise ValueError("expected a 2-d matrix")
        rows = [{} for _ in range(M.shape[0])]
        nz = np.nonzero(M)
        for i, j, v in zip(nz[0].tolist(), nz[1].tolist(), M[nz].tolist()):
            rows[i][j] = int(v)
    cols: defaultdict[int, set[int]] = defaultdict(set)
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, i = heapq.heappop(heap)
        row = rows[i]
        if size != len(row):
            continue  # changed since it was pushed, or pivoted (emptied)
        units = [j for j, v in row.items() if abs(v) == 1]
        if not units:
            continue
        j = min(units, key=lambda c: (len(cols[c]), c))
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
            heapq.heappush(heap, (len(other), r))
        pivots += 1
    left = [row for row in rows if row]
    at = {c: x for x, c in enumerate(sorted({c for row in left for c in row}))}
    R = np.zeros((len(left), len(at)), dtype=object)
    for y, row in enumerate(left):
        for c, v in row.items():
            R[y, at[c]] = v
    return (1,) * pivots + smith_normal_form(R).divisors


def solve_integer(snf: SNFResult, c: np.ndarray, modulus: int | None = None):
    """Solve M x = c (over Z, or mod `modulus`) given the SNF of M.

    Returns (x, None) on success or (None, obstruction) where the obstruction
    is the (index, residue) coordinate of c's class in the cokernel.
    """
    c = np.asarray(c)
    y = snf.U.astype(object) @ c.astype(object)
    w = np.zeros(snf.V.shape[0], dtype=object)
    for i in range(snf.U.shape[0]):
        yi = int(y[i]) if modulus is None else int(y[i]) % modulus
        if i >= snf.rank:
            if yi != 0:
                return None, (i, yi)
        elif modulus is None:
            d = snf.divisors[i]
            if yi % d != 0:
                return None, (i, yi % d)
            w[i] = yi // d
        else:
            sol = _mod_solve(snf.divisors[i], yi, modulus)
            if sol is None:
                return None, (i, yi)
            w[i] = sol
    x = snf.V.astype(object) @ w
    if modulus is not None:
        x = x % modulus
    return x, None


def _mod_solve(a: int, b: int, mod: int):
    """Smallest x with a*x = b (mod mod), or None."""
    a, b = a % mod, b % mod
    for x in range(mod):
        if (a * x) % mod == b:
            return x
    return None
