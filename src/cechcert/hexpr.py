"""Evaluable holomorphic expression trees.

The language is deliberately small: constants, coordinates, integer powers,
products, sums and exp.  That is enough for every transition function the
certificates use, and small enough that every exp-free expression has an
exact Laurent polynomial normal form, from which a monomial's coefficient and
exponents are read off (`as_monomial`), and on which `scenarios` proves the
tube's Hessian identities by a chain rule (`laurent_diff`) and substitution
(`laurent_subst`).  A transition that differs between the components of an
overlap is one expression per component, held in the bundle's transition table.

Expressions evaluate at one point with `cmath` (`evaluate`).  All nodes are
frozen, so equality is structural and expressions are safe to share.
"""

from __future__ import annotations

import cmath
import functools
import operator
from typing import Sequence, Union

from .errors import DomainError, ShapeError
from .geometry import CPoint, Frozen, Region

__all__ = [
    "HExpr",
    "Const",
    "Coord",
    "IntPower",
    "Product",
    "Sum",
    "Exp",
    "subst",
    "evaluate",
    "Laurent",
    "laurent_add",
    "laurent_mul",
    "laurent_diff",
    "laurent_subst",
    "as_laurent",
    "as_monomial",
    "MatExpr",
    "ChartMap",
]


class Const(Frozen):
    __slots__ = ("value",)

    def __init__(self, value: complex) -> None:
        object.__setattr__(self, "value", value)

    def to_jsonable(self):
        v = complex(self.value)
        return {"op": "const", "re": v.real, "im": v.imag}


class Coord(Frozen):
    __slots__ = ("j",)

    def __init__(self, j: int) -> None:
        object.__setattr__(self, "j", j)

    def to_jsonable(self):
        return {"op": "coord", "j": self.j}


class IntPower(Frozen):
    __slots__ = ("base", "k")

    def __init__(self, base: "HExpr", k: int) -> None:
        if k < 0 and base == Const(0):
            raise DomainError("negative power of the zero constant")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "k", k)

    def to_jsonable(self):
        return {"op": "pow", "base": self.base.to_jsonable(), "k": self.k}


class Product(Frozen):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple) -> None:
        object.__setattr__(self, "factors", factors)

    def to_jsonable(self):
        return {"op": "prod", "factors": [f.to_jsonable() for f in self.factors]}


class Sum(Frozen):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple) -> None:
        object.__setattr__(self, "terms", terms)

    def to_jsonable(self):
        return {"op": "sum", "terms": [t.to_jsonable() for t in self.terms]}


class Exp(Frozen):
    __slots__ = ("arg",)

    def __init__(self, arg: "HExpr") -> None:
        object.__setattr__(self, "arg", arg)

    def to_jsonable(self):
        return {"op": "exp", "arg": self.arg.to_jsonable()}


HExpr = Union[Const, Coord, IntPower, Product, Sum, Exp]


def evaluate(e: HExpr, zs: Sequence[complex]) -> complex:
    """The value of an expression at the point zs of C^n."""
    t = type(e)
    if t is Const:
        return complex(e.value)
    if t is Coord:
        return complex(zs[e.j])
    if t is IntPower:
        b = evaluate(e.base, zs)
        if e.k < 0 and b == 0:
            raise DomainError("negative power evaluated at a zero of the base")
        return b**e.k
    if t is Exp:
        return cmath.exp(evaluate(e.arg, zs))
    if t is Product:
        return functools.reduce(operator.mul, (evaluate(f, zs) for f in e.factors), 1 + 0j)
    return functools.reduce(operator.add, (evaluate(u, zs) for u in e.terms), 0j)


def subst(e: HExpr, mapping: dict[int, HExpr]) -> HExpr:
    """Replace Coord(j) by mapping[j]; used to compose with chart maps."""
    if isinstance(e, Coord):
        return mapping.get(e.j, e)
    if isinstance(e, IntPower):
        return IntPower(subst(e.base, mapping), e.k)
    if isinstance(e, Product):
        return Product(tuple(subst(f, mapping) for f in e.factors))
    if isinstance(e, Sum):
        return Sum(tuple(subst(t, mapping) for t in e.terms))
    if isinstance(e, Exp):
        return Exp(subst(e.arg, mapping))
    return e


# A Laurent polynomial in normal form: monomial -> nonzero coefficient, where
# a monomial prod_j z_j^{k_j} is the sorted tuple of its (j, k_j) with k_j != 0.
Laurent = dict[tuple[tuple[int, int], ...], complex]


def laurent_add(p: Laurent, q: Laurent, sign: int = 1) -> Laurent:
    """p + sign * q."""
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c != 0}


def laurent_mul(p: Laurent, q: Laurent) -> Laurent:
    """p * q: the term products summed into one dict, zero coefficients
    dropped once at the end."""
    out: Laurent = {}
    for a, c in p.items():
        for b, d in q.items():
            exps = dict(a)
            for j, k in b:
                exps[j] = exps.get(j, 0) + k
            m = tuple(sorted((j, k) for j, k in exps.items() if k))
            out[m] = out.get(m, 0) + c * d
    return {m: c for m, c in out.items() if c != 0}


def laurent_diff(p: Laurent, chain: dict[int, Laurent]) -> Laurent:
    """The derivative of p by a parameter t of which chain[j] is dv_j/dt for
    each variable v_j (a variable missing from chain does not depend on t):
    the sum over p's terms c v^k and their variables of c k_j v^k/v_j dv_j/dt."""
    out: Laurent = {}
    for m, c in p.items():
        for j, k in m:
            if j in chain:
                out = laurent_add(out, laurent_mul({m: c * k}, laurent_mul({((j, -1),): 1}, chain[j])))
    return out


def laurent_subst(p: Laurent, values: dict[int, Laurent]) -> Laurent:
    """p with each variable j in `values` replaced by the form values[j],
    which p must hold to nonnegative powers only (else ShapeError)."""
    out: Laurent = {}
    for m, c in p.items():
        term = {tuple((j, k) for j, k in m if j not in values): c}
        for j, k in m:
            if j in values:
                if k < 0:
                    raise ShapeError(f"negative power of the replaced variable {j}")
                term = functools.reduce(laurent_mul, [values[j]] * k, term)
        out = laurent_add(out, term)
    return out


def as_laurent(e: HExpr) -> Laurent:
    """Exact normal form of a Laurent polynomial expression (the zero
    expression gives {}): constants, coordinates, sums, products, nonnegative
    powers and negative powers of a monomial.  Anything else, exp or a negative
    power of a sum, raises ShapeError."""
    t, one = type(e), {(): 1 + 0j}
    if t is Const:
        return {(): complex(e.value)} if e.value != 0 else {}
    if t is Coord:
        return {((e.j, 1),): 1 + 0j}
    if t is Sum:
        return functools.reduce(laurent_add, map(as_laurent, e.terms), {})
    if t is Product:
        return functools.reduce(laurent_mul, map(as_laurent, e.factors), one)
    if t is IntPower:
        base = as_laurent(e.base)
        if e.k >= 0:
            return functools.reduce(laurent_mul, [base] * e.k, one)
        if len(base) != 1:
            raise ShapeError("negative power of an expression that is not a monomial")
        ((m, c),) = base.items()
        return {tuple((j, k * e.k) for j, k in m): c ** e.k}
    raise ShapeError(f"not a Laurent polynomial: {t.__name__}")


def as_monomial(e: HExpr) -> tuple[complex, dict[int, int]]:
    """Decompose into Const * prod_j z_j^{k_j}, or raise ShapeError."""
    terms = as_laurent(e)
    if len(terms) > 1:
        raise ShapeError(f"not a monomial expression: {len(terms)} terms")
    ((m, c),) = terms.items() or [((), 0j)]
    return c, dict(m)


# ---------------------------------------------------------------------------
# Matrix expressions (unused)


class MatExpr(Frozen):
    """An r x r matrix of expressions.  No module uses it any more: a line
    bundle's transition is one expression.  It stays while the benchmark's
    span wraps `MatExpr.at`, and the benchmark refresh (ROADMAP item 1)
    deletes it."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple) -> None:  # r-tuple of r-tuples of HExpr
        r = len(entries)
        if r == 0 or any(len(row) != r for row in entries):
            raise ShapeError("matrix expression must be square and nonempty")
        object.__setattr__(self, "entries", entries)

    @property
    def r(self) -> int:
        return len(self.entries)

    def at(self, z: CPoint):
        """The matrix at a point, as a complex numpy array."""
        import numpy as np
        return np.array([[evaluate(e, z.to_complex()) for e in row] for row in self.entries])

    def to_jsonable(self):
        return {
            "r": self.r,
            "entries": [[e.to_jsonable() for e in row] for row in self.entries],
        }


# ---------------------------------------------------------------------------
# Chart maps


class ChartMap:
    """A holomorphic map and a declared chart on which it is injective.

    forward: one expression per target coordinate.  domain: the chart in the
    source space on which the map is injective.
    """

    def __init__(self, name: str, forward: tuple, domain: Region) -> None:
        self.name, self.forward, self.domain = name, forward, domain

    @property
    def n_out(self) -> int:
        return len(self.forward)

    def forward_point(self, z: CPoint) -> CPoint:
        return CPoint.from_complex([evaluate(e, z.to_complex()) for e in self.forward])
