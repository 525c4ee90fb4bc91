"""Float oracles for the tube's Hessian: the unscaled 2x2 block evaluated from
the Laurent forms `scenarios.HESSIAN_BLOCK` that `scenarios.block_identities_hold`
proves, the full 2n x 2n real Hessian built from it, the Levi form in closed
form, and a finite-difference check of the Hessian, one block per
coordinate.  Tests compare these with sympy and with difference quotients."""

import math

import numpy as np

from cechcert import scenarios
from cechcert.errors import DomainError


def _value(form: dict, values: dict) -> float:
    """A Laurent form at a point given as variable -> float."""
    return math.fsum(c * math.prod(values[j] ** k for j, k in m) for m, c in form.items())


def hessian_block(zj: complex) -> tuple[tuple[float, float], tuple[float, float]]:
    """The unscaled block at z_j (scale 2/|z_j|^4), as rows: the forms of
    scenarios.HESSIAN_BLOCK at x, y, L = log|z_j| and R = |z_j|^2."""
    zj = complex(zj)
    if zj == 0:
        raise DomainError("coordinate vanishes")
    x, y = zj.real, zj.imag
    values = {scenarios.X: x, scenarios.Y: y, scenarios.L: math.log(abs(zj)), scenarios.R: x * x + y * y}
    return tuple(tuple(_value(form, values) for form in row) for row in scenarios.HESSIAN_BLOCK)


def real_hessian(z) -> np.ndarray:
    """Block diagonal, one 2x2 block 2/|z_j|^4 hessian_block(z_j) per coordinate."""
    n = z.n
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        block = np.array(hessian_block(z.z(j)))  # DomainError on the axes
        H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = 2.0 / abs(z.z(j)) ** 4 * block
    return H


def levi_form(z, w) -> float:
    """Complex Hessian of the exhaustion applied to tangent vector w."""
    for j in range(z.n):
        if z.z(j) == 0:
            raise DomainError(f"coordinate z_{j + 1} vanishes")
    if len(w) != z.n:
        raise ValueError("tangent vector has wrong length")
    total = 0.0
    for wj, zj in zip(w, z.to_complex()):
        a, b = abs(complex(wj)), abs(zj)
        total += a * a / (2.0 * (b * b))
    return total


def hessian_fd_residual(z, h: float) -> float:
    """Max entry difference between the block Hessian and central differences.

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
