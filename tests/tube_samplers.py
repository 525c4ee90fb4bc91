"""Random samplers of the tube G_eps = {rho < eps} and its boundary, and the
sampled contraction residual: a cross-check oracle for the closed-form tube
checks of run_dimn, which draw no random numbers."""

import math

import numpy as np

from cechcert.geometry import CPoint, rho


def sample_boundary(n: int, eps: float, count: int, rng: np.random.Generator) -> list[CPoint]:
    """Points exactly on the level set rho = eps (up to float rounding)."""
    u = rng.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    logs = math.sqrt(eps) * u
    args = rng.uniform(-math.pi, math.pi, size=(count, n))
    zs = np.exp(logs + 1j * args)
    return [CPoint.from_complex(row) for row in zs]


def sample_tube(n: int, eps: float, count: int, rng: np.random.Generator) -> list[CPoint]:
    """Points inside the tube rho < eps, uniform in the log-modulus ball."""
    u = rng.normal(size=(count, n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = math.sqrt(eps) * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    logs = radii * u
    args = rng.uniform(-math.pi, math.pi, size=(count, n))
    zs = np.exp(logs + 1j * args)
    return [CPoint.from_complex(row) for row in zs]


def contraction_residual(z: CPoint, t: float) -> float:
    """Residual of the radial-contraction identity rho(H(z,t)) = (1-t)^2 rho(z)."""
    zs = z.to_complex()
    img = np.abs(zs) ** (-t) * zs
    return abs(rho(CPoint.from_complex(img)) - (1.0 - t) ** 2 * rho(z))
