"""Exactness and transform-tracking properties of the Smith normal form,
with sympy's invariant factors as an independent oracle for the divisors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from cechcert.snf import smith_normal_form, solve_integer


def _is_unimodular(M: np.ndarray) -> bool:
    from fractions import Fraction

    n = M.shape[0]
    if M.shape != (n, n):
        return False
    # exact integer determinant via fraction-free Gaussian elimination
    A = [[int(x) for x in row] for row in M]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            return False
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        for r in range(col + 1, n):
            f = Fraction(A[r][col], A[col][col])
            A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    for i in range(n):
        det *= A[i][i]
    return det in (1, -1)


def _check(M):
    M = np.asarray(M)
    s = smith_normal_form(M)
    Mo = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            Mo[i, j] = int(M[i, j])
    U = np.asarray(s.U, dtype=object)
    V = np.asarray(s.V, dtype=object)
    D = np.zeros(M.shape, dtype=object)
    for i, d in enumerate(s.divisors):
        D[i, i] = d
    assert np.array_equal(U @ Mo @ V, D)
    assert _is_unimodular(U)
    assert _is_unimodular(V)
    assert s.rank == len(s.divisors)
    for a, b in zip(s.divisors, s.divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in s.divisors)
    oracle = invariant_factors(Matrix(Mo.tolist()), domain=ZZ)
    assert s.divisors == tuple(int(d) for d in oracle if d != 0)
    return s


def test_identity():
    s = _check(np.eye(4, dtype=int))
    assert s.divisors == (1, 1, 1, 1)


def test_diag_2_3():
    s = _check(np.array([[2, 0], [0, 3]]))
    assert s.divisors == (1, 6)


def test_zero_matrix():
    s = _check(np.zeros((3, 5), dtype=int))
    assert s.rank == 0
    assert s.divisors == ()


def test_unimodular_transforms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        _check(rng.integers(-9, 10, size=(4, 5)))


def test_big_integers_exact():
    M = np.array([[2**40, 1], [0, 3**30]], dtype=object)
    s = _check(M)
    assert s.rank == 2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
def test_random_property(rows):
    _check(np.array(rows, dtype=int))


def test_solve_integer_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(-5, 6, size=(4, 3))
        x0 = rng.integers(-4, 5, size=3)
        c = M @ x0
        s = smith_normal_form(M)
        x, obs = solve_integer(s, c)
        assert obs is None
        assert np.array_equal(M.astype(object) @ x, c.astype(object))


def test_solve_integer_obstruction():
    M = np.array([[2, 0], [0, 2]])
    s = smith_normal_form(M)
    x, obs = solve_integer(s, np.array([1, 0]))
    assert x is None and obs is not None


def test_solve_mod2():
    M = np.array([[2, 1], [0, 1]])
    s = smith_normal_form(M)
    x, obs = solve_integer(s, np.array([1, 1]), modulus=2)
    assert obs is None
    assert np.array_equal((M.astype(object) @ x) % 2, np.array([1, 1], dtype=object))


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        smith_normal_form(np.array([1, 2, 3]))
