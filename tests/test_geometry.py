"""Closed forms, sampling certificates, and grid connectivity primitives."""

import math

import numpy as np
import pytest

from cechcert.errors import DomainError, ResourceError
from cechcert.geometry import (
    CPoint,
    ball_region,
    contraction_residual,
    grid_components,
    hessian_block,
    hessian_block_det,
    hessian_block_trace,
    hessian_fd_residual,
    levi_form,
    real_hessian,
    rho,
    sample_boundary,
    sample_tube,
    segment_convexity,
    up_radius,
)
from cechcert.covers import g_eps_region, omega_region, p_point, up_ball


def test_rho_examples():
    assert rho(CPoint.from_complex([1, 1])) == 0.0
    eps, n = 1.0, 2
    p = p_point(n, eps)
    assert abs(rho(p) - eps) < 1e-12
    assert abs(rho(CPoint.from_complex([math.e, 1])) - 1.0) < 1e-12


def test_rho_zero_only_on_torus():
    rng = np.random.default_rng(0)
    args = rng.uniform(-math.pi, math.pi, size=(200, 2))
    for a1, a2 in args:
        z = CPoint.from_complex([np.exp(1j * a1), np.exp(1j * a2)])
        assert rho(z) < 1e-28
    for row in rng.uniform(0.2, 3.0, size=(200, 2)):
        if abs(row[0] - 1.0) > 1e-3 or abs(row[1] - 1.0) > 1e-3:
            z = CPoint.from_complex([complex(row[0]), complex(row[1])])
            assert rho(z) > 0.0


def test_rho_domain_error():
    with pytest.raises(DomainError):
        rho(CPoint.from_complex([0, 1]))


def test_levi_closed_form():
    assert abs(levi_form(CPoint.from_complex([1, 1]), [1, 0]) - 0.5) < 1e-15
    assert levi_form(CPoint.from_complex([2, 3]), [0, 0]) == 0.0


def test_levi_boundary_lower_bound():
    n, eps = 2, 1.0
    rng = np.random.default_rng(1)
    lower = 1.0 / (2.0 * math.exp(2.0 * math.sqrt(eps)))
    for z in sample_boundary(n, eps, 500, rng):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert levi_form(z, w) >= lower * float(np.sum(np.abs(w) ** 2)) - 1e-12


def test_hessian_block_degenerate_at_unit_and_e():
    b = hessian_block(1.0 + 0j)
    assert np.allclose(b, [[1.0, 0.0], [0.0, 0.0]])
    assert abs(hessian_block_det(1.0 + 0j)) < 1e-15
    assert abs(hessian_block_det(complex(math.e, 0.0))) < 1e-12


def test_hessian_pd_window_sign():
    for s in np.linspace(0.2, 3.4, 500):
        d = hessian_block_det(complex(s, 0.0))
        if 1.0 < s < math.e:
            assert d > 0
        elif abs(s - 1.0) > 1e-9 and abs(s - math.e) > 1e-9:
            assert d < 0


def test_hessian_pd_at_p():
    for n in (2, 3):
        p = p_point(n, n / 2.0)
        H = real_hessian(p)
        eig = np.linalg.eigvalsh(H)
        assert np.min(eig) > 0
        for j in range(n):
            assert hessian_block_det(p.z(j)) > 0
            assert hessian_block_trace(p.z(j)) > 0


def test_hessian_fd_agreement():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        for _ in range(30):
            mods = rng.uniform(0.5, 3.0, size=n)
            args = rng.uniform(-math.pi, math.pi, size=n)
            z = CPoint.from_complex(mods * np.exp(1j * args))
            assert hessian_fd_residual(z, 1e-4) < 1e-5


def test_hessian_fd_rejects_bad_step():
    with pytest.raises(DomainError):
        hessian_fd_residual(CPoint.from_complex([1, 1]), 0.0)
    with pytest.raises(DomainError):
        hessian_fd_residual(CPoint.from_complex([1e-9, 1]), 1e-4)


def test_contains_examples():
    g = g_eps_region(2, 1.0)
    assert g.contains(CPoint.from_complex([1, 1]))
    omega = omega_region(2, 1.0)
    assert omega.contains(CPoint.from_complex([0, 0]))
    # a point at exhaustion level exactly eps is outside the open tube
    z = CPoint.from_complex([math.exp(1.0), 1.0])
    assert abs(rho(z) - 1.0) < 1e-12
    assert not g.contains(z)


def test_tube_in_ball_bound():
    n, eps = 2, 1.0
    rng = np.random.default_rng(5)
    bound = n * math.exp(2.0 * math.sqrt(eps))
    for z in sample_tube(n, eps, 2000, rng):
        assert sum(abs(z.z(j)) ** 2 for j in range(n)) < bound


def test_grid_components_ball():
    ball = ball_region((0.0, 0.0, 0.0, 0.0), 1.0)
    lab = grid_components(ball, 0.25)
    assert lab.n_components == 1
    assert lab.n_in_region > 0


def test_grid_components_deterministic():
    ball = ball_region((0.5, 0.0), 1.0)
    a = grid_components(ball, 0.1)
    b = grid_components(ball, 0.1)
    assert a.n_components == b.n_components
    assert [p.xy for p in a.representatives] == [p.xy for p in b.representatives]
    assert np.array_equal(a.labels, b.labels)


def test_grid_budget():
    ball = ball_region((0.0, 0.0, 0.0, 0.0), 1.0)
    with pytest.raises(ResourceError):
        grid_components(ball, 0.001, budget=1000)


def test_segment_convexity_ball():
    ball = ball_region((0.0, 0.0), 2.0)
    assert segment_convexity(ball, 500, seed=0).ok


def test_tube_not_convex_explicit_witness():
    g = g_eps_region(2, 1.0)
    p1 = CPoint.from_complex([math.exp(0.9), 1.0])
    p2 = CPoint.from_complex([-math.exp(0.9), 1.0])
    mid = CPoint(tuple(0.5 * (np.asarray(p1.xy) + np.asarray(p2.xy))))
    assert g.contains(p1) and g.contains(p2)
    assert not g.contains(mid)  # midpoint hits the vanishing-modulus locus
    verdict = segment_convexity(g, 5000, seed=0)
    assert not verdict.ok


def test_tube_cap_ball_convexity():
    g = g_eps_region(2, 1.0)
    up = up_ball(2, 1.0, 0.5)
    assert segment_convexity(g.intersect(up), 2000, seed=0).ok


def test_contraction_identity():
    rng = np.random.default_rng(11)
    pts = sample_tube(2, 1.0, 500, rng)
    for z in pts:
        assert contraction_residual(z, 0.0) == 0.0
        assert contraction_residual(z, float(rng.uniform(0, 1))) <= 1e-12
    z = pts[0]
    img = np.abs(z.to_complex()) ** -1.0 * z.to_complex()
    assert rho(CPoint.from_complex(img)) < 1e-28


def test_up_radius():
    r = up_radius(2, 1.0, 0.5)
    assert abs(r - 0.5 * (math.e - math.exp(1.0 / math.sqrt(2.0)))) < 1e-12
    with pytest.raises(DomainError):
        up_radius(2, 2.0, 0.5)
    with pytest.raises(DomainError):
        up_radius(2, 2.5, 0.5)
    assert up_radius(2, 1.0, 1e-6) < 1e-5


def test_up_ball_inside_pd_window():
    for n in (2, 3):
        eps = n / 2.0
        up = up_ball(n, eps, 0.5)
        rng = np.random.default_rng(2)
        for row in up.sample(500, rng):
            z = CPoint(tuple(row))
            for j in range(n):
                assert 1.0 < abs(z.z(j)) < math.e
                assert hessian_block_det(z.z(j)) > 0


def test_boundary_sampler_is_on_level_set():
    rng = np.random.default_rng(9)
    for z in sample_boundary(3, 1.5, 200, rng):
        assert abs(rho(z) - 1.5) < 1e-10
