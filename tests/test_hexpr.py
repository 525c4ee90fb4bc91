"""Holomorphic expression trees, their normal forms, and chart maps."""

import cmath
import itertools
import math
from collections import Counter

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cechcert.errors import DomainError, ShapeError
from cechcert.geometry import CPoint
from cechcert.hexpr import (
    Const,
    Coord,
    Exp,
    IntPower,
    Product,
    Sum,
    as_monomial,
    evaluate,
    laurent_add,
    laurent_diff,
    laurent_mul,
    laurent_subst,
    subst,
)
from cechcert.covers import exp_chart

from chart_samplers import forward_complex


def _at(e, p: CPoint) -> complex:
    return evaluate(e, p.to_complex())


def test_ev_examples():
    p = CPoint.from_complex([2 + 1j, -3])
    assert _at(Const(-1), p) == -1
    assert _at(Coord(0), p) == 2 + 1j
    assert _at(Coord(1), p) == -3
    assert abs(_at(Exp(Const(2j * math.pi)), p) - 1.0) < 1e-15
    e = Product((Const(2.0), IntPower(Coord(0), 3), Coord(1)))
    assert abs(_at(e, p) - 2.0 * (2 + 1j) ** 3 * (-3)) < 1e-12


def test_ev_batch():
    zc = np.array([[1.0 + 0j, 2.0], [3.0, 4.0]])
    out = [evaluate(Sum((Coord(0), Coord(1))), row) for row in zc]
    assert np.allclose(out, [3.0, 7.0])


def test_int_power_rejects_neg_power_of_zero():
    with pytest.raises(DomainError):
        IntPower(Const(0), -1)
    assert _at(IntPower(Coord(0), -2), CPoint.from_complex([2.0, 1.0])) == 0.25


def test_as_monomial():
    c, exps = as_monomial(Product((Const(3j), IntPower(Coord(1), -2), Coord(0))))
    assert c == 3j
    assert exps == {0: 1, 1: -2}
    with pytest.raises(ShapeError):
        as_monomial(Sum((Coord(0), Const(1))))


def test_subst_composition():
    e = Product((IntPower(Coord(0), 2), Coord(1)))
    f = subst(e, {0: Sum((Coord(0), Const(1)))})
    p = CPoint.from_complex([2.0, 3.0])
    assert abs(_at(f, p) - (3.0**2) * 3.0) < 1e-12


def test_exp_chart_roundtrip():
    chart = exp_chart()
    rng = np.random.default_rng(1)
    pts = chart.domain.sample(200, rng)
    zc = pts[:, 0::2] + 1j * pts[:, 1::2]
    # on |x_j| < pi the principal branch of -i log inverts the chart, so the
    # map is injective there
    back = -1j * np.log(forward_complex(chart, zc))
    assert np.max(np.abs(back - zc)) < 1e-12
    p = CPoint((0.5, 0.25, -0.5, 0.1))
    w = chart.forward_point(p)
    assert abs(w.z(0) - cmath.exp(1j * p.z(0))) < 1e-14
    back = CPoint.from_complex(-1j * np.log(w.to_complex()))
    assert np.allclose(back.xy, p.xy)


def _pairwise_mul(p, q):
    """Reference product: each pair of terms added on its own with laurent_add."""
    out = {}
    for (a, c), (b, d) in itertools.product(p.items(), q.items()):
        exps = Counter(dict(a))
        exps.update(dict(b))
        out = laurent_add(out, {tuple(sorted((j, k) for j, k in exps.items() if k)): c * d})
    return out


_monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-2, 2)), max_size=3, unique_by=lambda t: t[0]
).map(lambda m: tuple(sorted((j, k) for j, k in m if k)))
_laurents = st.dictionaries(
    _monomials, st.integers(-3, 3).filter(bool).map(complex), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(_laurents, _laurents, _laurents)
def test_laurent_mul_matches_the_pairwise_reference(p, q, r):
    assert laurent_mul(p, q) == _pairwise_mul(p, q)
    assert laurent_mul(p, {}) == laurent_mul({}, q) == {}
    # q - r shares monomials with q, so terms of p (q - r) cancel; with r = q
    # the whole product is zero
    for s in (laurent_add(q, r, -1), laurent_add(q, q, -1)):
        assert laurent_mul(p, s) == _pairwise_mul(p, s)
        rest = laurent_mul(p, laurent_add(q, s, -1))
        assert laurent_mul(p, s) == laurent_add(laurent_mul(p, q), rest, -1)


def test_laurent_mul_drops_cancelled_terms():
    x, y = {((0, 1),): 1 + 0j}, {((1, 1),): 1 + 0j}
    # (x + y)(x - y) = x^2 - y^2: the two xy terms cancel
    prod = laurent_mul(laurent_add(x, y), laurent_add(x, y, -1))
    assert prod == {((0, 2),): 1 + 0j, ((1, 2),): -1 + 0j} == _pairwise_mul(
        laurent_add(x, y), laurent_add(x, y, -1)
    )
    # x * x^-1 = 1 keeps the constant, with its empty monomial
    assert laurent_mul(x, {((0, -1),): 2 + 0j}) == {(): 2 + 0j}


_V = sp.symbols("v0:3")


def _sym(p):
    return sp.Add(*(int(c.real) * sp.Mul(*(_V[j] ** k for j, k in m)) for m, c in p.items()))


# polynomials: Laurent forms without negative powers
_polys = st.dictionaries(
    _monomials.map(lambda m: tuple((j, abs(k)) for j, k in m)),
    st.integers(-3, 3).filter(bool).map(complex),
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(_laurents, _laurents, _laurents, st.sampled_from([(0,), (1, 2), (0, 1, 2)]))
def test_laurent_diff_is_the_chain_rule(p, d0, d1, variables):
    # dp/dt = sum_j dp/dv_j dv_j/dt, with dv_j/dt = 0 for j left out of the chain
    chain = {j: (d0, d1, d0)[j] for j in variables}
    want = sum(sp.diff(_sym(p), _V[j]) * _sym(chain[j]) for j in variables)
    assert sp.expand(_sym(laurent_diff(p, chain)) - want) == 0


@settings(max_examples=100, deadline=None)
@given(_polys, _laurents, _laurents)
def test_laurent_subst_replaces_nonnegative_powers(p, q, r):
    want = _sym(p).subs({_V[0]: _sym(q), _V[2]: _sym(r)}, simultaneous=True)
    assert sp.expand(_sym(laurent_subst(p, {0: q, 2: r})) - want) == 0
    assert laurent_subst(p, {0: {}, 1: {}, 2: {}}) == ({(): p[()]} if () in p else {})


def test_laurent_subst_refuses_a_negative_power_of_a_replaced_variable():
    with pytest.raises(ShapeError, match="negative power of the replaced variable 1"):
        laurent_subst({((0, 1), (1, -1)): 1}, {1: {((2, 1),): 1}})
    assert laurent_subst({((0, 1), (1, -1)): 1}, {0: {(): 3}}) == {((1, -1),): 3}
