"""Evaluable holomorphic expression trees and matrices of them.

The language is deliberately small: constants, coordinates, integer powers,
products, sums and exp.  That is enough for every transition function the
certificates use, and small enough that every exp-free expression has an
exact Laurent polynomial normal form, from which a monomial's coefficient and
exponents are read off (`as_monomial`).  A transition that differs between the
components of an overlap is one expression per component, held in the
bundle's transition table.

Expressions evaluate at one point with `cmath` (`evaluate`).  All nodes are
frozen, so equality is structural and expressions are safe to share.
"""

from __future__ import annotations

import cmath
import functools
import operator
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DomainError, ShapeError
from .geometry import CPoint, Region

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
    "as_laurent",
    "as_monomial",
    "MatExpr",
    "mat_identity",
    "ChartMap",
]


@dataclass(frozen=True)
class Const:
    value: complex

    def to_jsonable(self):
        v = complex(self.value)
        return {"op": "const", "re": v.real, "im": v.imag}


@dataclass(frozen=True)
class Coord:
    j: int

    def to_jsonable(self):
        return {"op": "coord", "j": self.j}


@dataclass(frozen=True)
class IntPower:
    base: "HExpr"
    k: int

    def __post_init__(self) -> None:
        if self.k < 0 and self.base == Const(0):
            raise DomainError("negative power of the zero constant")

    def to_jsonable(self):
        return {"op": "pow", "base": self.base.to_jsonable(), "k": self.k}


@dataclass(frozen=True)
class Product:
    factors: tuple

    def to_jsonable(self):
        return {"op": "prod", "factors": [f.to_jsonable() for f in self.factors]}


@dataclass(frozen=True)
class Sum:
    terms: tuple

    def to_jsonable(self):
        return {"op": "sum", "terms": [t.to_jsonable() for t in self.terms]}


@dataclass(frozen=True)
class Exp:
    arg: "HExpr"

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
# Matrix expressions


@dataclass(frozen=True)
class MatExpr:
    """An r x r matrix of expressions; transitions are required to be units
    on their domains (checked exactly in the bundle validators, not here)."""

    entries: tuple  # r-tuple of r-tuples of HExpr

    def __post_init__(self) -> None:
        r = len(self.entries)
        if r == 0 or any(len(row) != r for row in self.entries):
            raise ShapeError("matrix expression must be square and nonempty")

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


@functools.cache  # frozen, so shared; bundles._report caches normal forms by id
def mat_identity(r: int) -> MatExpr:
    return MatExpr(
        tuple(tuple(Const(1 if a == b else 0) for b in range(r)) for a in range(r))
    )


# ---------------------------------------------------------------------------
# Chart maps


@dataclass
class ChartMap:
    """A holomorphic map and a declared chart on which it is injective.

    forward: one expression per target coordinate.  domain: the chart in the
    source space on which the map is injective.
    """

    name: str
    forward: tuple
    domain: Region

    @property
    def n_out(self) -> int:
        return len(self.forward)

    def forward_point(self, z: CPoint) -> CPoint:
        return CPoint.from_complex([evaluate(e, z.to_complex()) for e in self.forward])
