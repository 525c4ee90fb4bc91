"""Exactness and transform-tracking properties of the Smith normal form, and
the divisors and solves of the sparse unit-pivot elimination, with sympy's
invariant factors as an independent oracle for all three."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from cechcert import snf as snf_mod
from cechcert.snf import smith_divisors, smith_normal_form, solve_integer

import min_key_pivots


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


def _as_object(M) -> np.ndarray:
    Mo = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            Mo[i, j] = int(M[i, j])
    return Mo


def _oracle(M) -> tuple[int, ...]:
    if 0 in M.shape:
        return ()
    factors = invariant_factors(Matrix(_as_object(M).tolist()), domain=ZZ)
    return tuple(int(d) for d in factors if d != 0)


def _check(M):
    M = np.asarray(M)
    s = smith_normal_form(M)
    Mo = _as_object(M)
    U = np.asarray(s.U, dtype=object)
    V = np.asarray(s.V, dtype=object)
    D = np.zeros(M.shape, dtype=object)
    for i, d in enumerate(s.divisors):
        D[i, i] = d
    assert np.array_equal(U @ Mo @ V, D)
    assert _is_unimodular(U)
    assert _is_unimodular(V)
    for a, b in zip(s.divisors, s.divisors[1:]):
        assert b % a == 0
    assert all(d > 0 for d in s.divisors)
    assert s.divisors == _oracle(M)
    assert smith_divisors(M) == s.divisors
    assert _divisors_of_rows(M) == s.divisors
    return s


def _divisors_of_rows(M) -> tuple[int, ...]:
    """`smith_divisors` of M given as sparse rows, which it must not change."""
    rows = [{j: int(v) for j, v in enumerate(r) if v} for r in np.asarray(M)]
    kept = [dict(r) for r in rows]
    d = smith_divisors(rows)
    assert rows == kept
    return d


def test_identity():
    s = _check(np.eye(4, dtype=int))
    assert s.divisors == (1, 1, 1, 1)


def test_diag_2_3():
    s = _check(np.array([[2, 0], [0, 3]]))
    assert s.divisors == (1, 6)


def test_zero_matrix():
    s = _check(np.zeros((3, 5), dtype=int))
    assert s.divisors == ()


def test_unimodular_transforms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        _check(rng.integers(-9, 10, size=(4, 5)))
    # int64 input whose transforms grow far past int64: on this seed the largest
    # U and V entries of these eight matrices have 35 to 1,404 bits
    rng = np.random.default_rng(0)
    for _ in range(8):
        _check(rng.integers(-10, 11, size=(6, 6)))


def test_big_integers_exact():
    M = np.array([[2**40, 1], [0, 3**30]], dtype=object)
    s = _check(M)
    assert len(s.divisors) == 2


def test_transforms_are_python_ints():
    # an int64 input is reduced on Python ints, never on int64
    s = smith_normal_form(np.array([[2, 4], [6, 8]], dtype=np.int64))
    for T in (s.U, s.V):
        assert T.dtype == object and all(type(x) is int for x in T.ravel())


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


@settings(max_examples=80, deadline=2000)
@given(
    arrays(
        np.int64,
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.sampled_from((-1, 0, 0, 0, 1)),
    )
)
def test_divisors_of_sparse_unit_matrices(M):
    # sympy only: the dense _reduce has an open termination defect on larger
    # dense inputs, so its comparison stays in _check at the smaller sizes
    assert smith_divisors(M) == _oracle(M)


@st.composite
def _sparse_oriented(draw):
    """A sparse matrix with entries in +-3 that is tall, wide or square."""
    side = draw(st.sampled_from(["tall", "wide", "square"]))
    short = draw(st.integers(1, 5))
    long = short if side == "square" else draw(st.integers(short + 1, 9))
    shape = (long, short) if side == "tall" else (short, long)
    return draw(arrays(np.int64, shape, elements=st.sampled_from((-3, -2, -1, 0, 0, 0, 1, 2, 3))))


@settings(max_examples=200, deadline=None)
@given(_sparse_oriented())
def test_pivot_divisors_on_either_side(M):
    rows = [{j: int(v) for j, v in enumerate(r) if v} for r in M]
    pivots, _, _, R = snf_mod._eliminate([dict(r) for r in rows])
    by_rows = (1,) * len(pivots) + smith_normal_form(R).divisors
    divisors, cleared = snf_mod.pivot_divisors([dict(r) for r in rows])
    assert divisors == smith_divisors(M) == by_rows == _oracle(M)
    # the pivot rows R and their pivot columns C: M[R, C] is unimodular
    pairs, _ = snf_mod._unit_pivots([dict(r) for r in rows])
    assert set(pairs) == cleared and len(set(pairs.values())) == len(pairs)
    assert not pairs or _is_unimodular(M[np.ix_(list(pairs), list(pairs.values()))])


def test_pivot_divisors_eliminates_along_the_short_side(monkeypatch):
    lines = []
    real = snf_mod._eliminate

    def spy(rows, prov=None):
        lines.append(len(rows))
        return real(rows, prov)

    monkeypatch.setattr(snf_mod, "_eliminate", spy)
    tall = [{0: 1}, {1: 1}, {0: 2, 1: 3}, {1: -1}, {0: 1, 1: 1}]
    wide = [{j: 1 for j in range(5)}, {1: 2, 3: 1}]
    # four rows on three of the six columns: more rows than columns touched
    thin = [{0: 1, 5: 1}, {2: 1}, {0: 2, 2: -1}, {5: 3}]
    for rows in (tall, wide, thin):
        snf_mod.pivot_divisors([dict(r) for r in rows])
    assert lines == [2, 2, 3]
    # a solve keeps the rows, whose provenance its witness reads
    solve_integer(tall, [0, 0, 0, 0, 0])
    assert lines[-1] == len(tall)


@st.composite
def _tied_rows(draw):
    """Sparse rows over a few columns, entries in +-1 and +-2, so that rows
    often hold several units whose columns have the same count."""
    width = draw(st.integers(1, 6))
    entry = st.sampled_from((-2, -1, 1, 2))
    row = st.dictionaries(st.integers(0, width - 1), entry, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=10))


@settings(max_examples=200, deadline=None)
@given(_tied_rows(), st.booleans())
def test_eliminate_picks_the_pivots_of_the_min_key_rule(rows, with_prov):
    def run(eliminate):
        work = [dict(r) for r in rows]
        prov = [{i: 1} for i in range(len(rows))] if with_prov else None
        pivots, left, cols, R = eliminate(work, prov)
        return list(pivots.items()), left, cols, list(R), work, prov

    assert run(snf_mod._eliminate) == run(min_key_pivots.eliminate)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
def test_divisors_of_empty_matrices(shape):
    M = np.zeros(shape, dtype=np.int64)
    assert smith_divisors(M) == smith_normal_form(M).divisors == ()


def test_remainders_past_int64_stay_exact():
    # a row of 2**63 + 1 and -2 has no unit entry, so it reaches the dense
    # remainder, where an inferred dtype would be float64 and round the odd
    # entry to 2**63: divisor 2 instead of gcd = 1
    big = 2**63 + 1
    for M in ([{0: big, 1: -2}], [[big, -2]], [{0: big, 1: -2}, {0: 2 * big, 1: -4}]):
        assert smith_divisors(M) == (1,)
    assert smith_normal_form([[big, -2]]).divisors == (1,)
    assert smith_divisors([{0: 3 * 2**64, 1: -6}]) == (6,)
    x, _ = solve_integer([[big, -2]], [1])
    assert big * x[0] - 2 * x[1] == 1
    x, (y, q) = solve_integer([[2 * big, -2]], [1])
    assert x is None and q == 2 and y[0] % 2


def test_an_empty_remainder_reaches_smith_normal_form_without_numpy():
    rows = [{0: 1, 1: 2}, {1: 1}]
    pivots, _, _, R = snf_mod._eliminate([dict(r) for r in rows])
    assert len(pivots) == 2 and R is snf_mod._EMPTY and not R
    res = smith_normal_form(R)
    assert res.divisors == () and res.U is res.V is snf_mod._EMPTY
    # numpy reads it as a 0 x 0 object array, as it read the dense remainder
    A = np.asarray(R)
    assert A.shape == (0, 0) and A.dtype == object and res.U.dtype == object


def _rp2_coboundary() -> np.ndarray:
    """d^1 of the 6-vertex triangulation of the real projective plane."""
    tris = [
        (1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6),
    ]
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})
    col = {e: i for i, e in enumerate(edges)}
    D = np.zeros((len(tris), len(edges)), dtype=np.int64)
    for r, t in enumerate(tris):
        for m in range(3):
            D[r, col[t[:m] + t[m + 1 :]]] += (-1) ** m
    return D


def _rank_mod2(M: np.ndarray) -> int:
    A = [[int(x) % 2 for x in row] for row in M]
    rank = 0
    for c in range(M.shape[1]):
        piv = next((r for r in range(rank, len(A)) if A[r][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        for r in range(len(A)):
            if r != rank and A[r][c]:
                A[r] = [a ^ b for a, b in zip(A[r], A[rank])]
        rank += 1
    return rank


def test_divisors_of_rp2_leave_torsion_in_the_remainder(monkeypatch):
    D = _rp2_coboundary()
    assert D.shape == (10, 15)
    remainders = []
    real = snf_mod.smith_normal_form

    def spy(R):
        remainders.append(np.asarray(R))
        return real(R)

    monkeypatch.setattr(snf_mod, "smith_normal_form", spy)
    d = smith_divisors(D)
    # nine unit pivots, then a 1x3 remainder of +-2 entries with divisor 2
    assert d == (1,) * 9 + (2,)
    assert [R.shape for R in remainders] == [(1, 3)]
    assert sorted(abs(int(x)) for x in remainders[0].ravel()) == [2, 2, 2]
    assert d == _oracle(D) == real(D).divisors == _divisors_of_rows(D)
    assert sum(1 for x in d if x % 2) == _rank_mod2(D) == 9


def test_divisors_of_rows_leave_the_rows_unchanged():
    # pivoting on the first row would clear column 0 of the other rows in place
    rows = [{0: 1, 1: 2}, {0: 3, 2: 1}, {0: -1, 1: 5, 2: 7}, {}]
    kept = [dict(r) for r in rows]
    assert smith_divisors(rows) == (1, 1, 49)  # the leading 3x3 minor is -49
    assert rows == kept


def test_divisors_with_fill_in_beyond_int64():
    # entries fit int64, but clearing the unit pivot leaves 1 - 3^78
    M = np.array([[1, 3**39], [3**39, 1]], dtype=np.int64)
    d = smith_divisors(M)
    assert d == (1, 3**78 - 1)
    assert d[1] > np.iinfo(np.int64).max
    assert d == _oracle(M)


def test_solve_integer_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.integers(-5, 6, size=(4, 3))
        x0 = rng.integers(-4, 5, size=3)
        c = M @ x0
        x, obs = solve_integer(M, c)
        assert obs is None
        assert np.array_equal(M.astype(object) @ x, c.astype(object))


def test_solve_integer_obstruction():
    M = np.array([[2, 0], [0, 2]])
    x, obs = solve_integer(M, np.array([1, 0]))
    # no unit pivot: the remainder is M itself, and row 0 is 0 = 1 mod 2
    assert x is None and obs == ({0: 1}, 2)


def test_solve_mod2():
    M = np.array([[2, 1], [0, 1]])
    x, obs = solve_integer(M, np.array([1, 1]), modulus=2)
    assert obs is None
    assert np.array_equal((M.astype(object) @ x) % 2, np.array([1, 1], dtype=object))


def _check_solve(M, c, modulus, sparse=False):
    """`solve_integer` answers yes exactly when the oracle does: over Z when M
    and [M | c] have the same invariant factors, over Z/2 the same rank; a
    returned x solves M x = c exactly, or mod 2, and a returned witness (y, q)
    has y M = 0 and y c != 0 mod q (q = 0: exactly; q = 2 over Z/2)."""
    M, c = np.asarray(M), np.asarray(c)
    A = np.column_stack([M, c])
    want = _oracle(M) == _oracle(A) if modulus is None else _rank_mod2(M) == _rank_mod2(A)
    rows = [{j: int(v) for j, v in enumerate(r) if v} for r in M]
    x, obs = solve_integer(rows if sparse else M, c, modulus=modulus)
    assert (obs is None) == want, (x, obs)
    if x is not None:
        x = x + [0] * (M.shape[1] - len(x))  # sparse rows end at the last column they touch
        residual = M.astype(object) @ np.array(x, dtype=object) - c.astype(object)
        assert not any(v % modulus if modulus else v for v in residual)
    else:
        y, q = obs
        assert (q == 2) if modulus else (q != 1)  # modulo 1 nothing is nonzero
        yv = np.zeros(M.shape[0], dtype=object)
        for r, v in y.items():
            yv[r] = v
        yM, yc = yv @ M.astype(object), yv @ c.astype(object)
        assert not any(v % q if q else v for v in yM)
        assert yc % q if q else yc
    return obs


@settings(max_examples=150, deadline=None)
@given(
    arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=st.integers(-3, 3)),
    st.booleans(),
    st.booleans(),
    st.sampled_from((None, 2)),
    st.booleans(),
    st.data(),
)
def test_solve_integer_against_invariant_factors(M, doubled, in_image, modulus, sparse, data):
    if doubled:
        M = 2 * M  # no +-1 entry, so everything goes to the remainder
    if in_image:
        c = M @ data.draw(arrays(np.int64, M.shape[1], elements=st.integers(-3, 3)))
    else:
        c = data.draw(arrays(np.int64, M.shape[0], elements=st.integers(-6, 6)))
    _check_solve(M, c, modulus, sparse)


def test_solve_integer_through_the_rp2_remainder():
    D = _rp2_coboundary()
    inside = D @ (np.arange(15) % 4 - 1)
    outside = np.eye(10, dtype=np.int64)[0]  # one triangle: the class of order 2
    for modulus in (None, 2):
        for sparse in (False, True):
            assert _check_solve(D, inside, modulus, sparse) is None
            # nine rows pivot and the tenth is the 1x3 remainder of +-2 entries,
            # so no row is emptied and the witness is taken mod its divisor 2
            _, q = _check_solve(D, outside, modulus, sparse)
            assert q == 2


def test_solve_integer_through_a_divisor_that_is_odd():
    # 3 x = 1 has no integer solution, but 3 is a unit mod 2, so x = 1 solves it there
    assert _check_solve(np.array([[3]]), np.array([1]), None) == ({0: 1}, 3)
    assert _check_solve(np.array([[3]]), np.array([1]), 2) is None


def test_solve_integer_rejects_other_moduli():
    with pytest.raises(ValueError, match="modulus"):
        solve_integer(np.eye(2, dtype=np.int64), np.array([1, 1]), modulus=3)


def test_rejects_non_2d():
    with pytest.raises(ValueError):
        smith_normal_form(np.array([1, 2, 3]))
    with pytest.raises(ValueError):
        smith_divisors(np.array([1, 2, 3]))
