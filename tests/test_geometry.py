"""Closed forms, the sampled tube oracle, and grid connectivity primitives."""

import math
import time

import numpy as np
import pytest
import sympy as sp

from cechcert import scenarios
from cechcert.errors import DomainError, ResourceError
from cechcert.geometry import (
    CPoint,
    ball_region,
    grid_components,
    hessian_block_det,
    hessian_block_trace,
    rho,
    segment_convexity,
    up_radius,
)
from cechcert.covers import g_eps_region, omega_region, p_point, up_ball

from real_hessian import hessian_block, hessian_fd_residual, levi_form, real_hessian
from tube_samplers import contraction_residual, sample_boundary, sample_tube


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


def _full_fd_hessian(z, h):
    # every second partial of rho by central differences, off-block entries
    # included: the O(n^3) difference the per-block residual replaces
    def f(v):
        return sum(math.log(math.hypot(v[2 * j], v[2 * j + 1])) ** 2 for j in range(len(v) // 2))

    xy, m = np.asarray(z.xy), len(z.xy)
    e = np.eye(m) * h
    return np.array(
        [
            [(f(xy + e[a] + e[b]) - f(xy + e[a] - e[b]) - f(xy - e[a] + e[b]) + f(xy - e[a] - e[b])) / (4 * h * h)
             for b in range(m)]
            for a in range(m)
        ]
    )


def test_hessian_fd_residual_agrees_with_the_full_difference_hessian():
    # rho's off-block second partials vanish, so differencing the 2x2 blocks
    # alone leaves out nothing the full 2n x 2n difference would see
    rng = np.random.default_rng(8)
    for n in (2, 3):
        mods = rng.uniform(0.5, 3.0, size=n)
        z = CPoint.from_complex(mods * np.exp(1j * rng.uniform(-math.pi, math.pi, size=n)))
        full = _full_fd_hessian(z, 1e-4)
        blocks = np.kron(np.eye(n), np.ones((2, 2))) > 0
        assert np.max(np.abs(full[~blocks])) < 1e-5
        assert np.max(np.abs(full - real_hessian(z))) < 1e-5
        assert hessian_fd_residual(z, 1e-4) < 1e-5


def test_hessian_fd_residual_sees_a_wrong_block(monkeypatch):
    # the residual reads the block forms the proof uses
    p = p_point(3, 1.5)
    assert hessian_fd_residual(p, 1e-4) < 1e-5
    wrong = tuple(tuple({m: 1.001 * c for m, c in f.items()} for f in row) for row in scenarios.HESSIAN_BLOCK)
    monkeypatch.setattr(scenarios, "HESSIAN_BLOCK", wrong)
    assert hessian_fd_residual(p, 1e-4) > 1e-5


def test_hessian_fd_residual_is_linear_in_n():
    p = p_point(64, 32.0)
    t0 = time.perf_counter()
    assert hessian_fd_residual(p, 1e-4) < 1e-5
    assert time.perf_counter() - t0 < 0.5  # the full 128 x 128 difference took over 1 s


def test_sympy_confirms_the_levi_diagonal_and_the_hessian_blocks():
    # rho's term for one coordinate, (log|z|)^2, in z = x + iy
    x, y = sp.symbols("x y", real=True)
    r2, lg = x**2 + y**2, sp.log(x**2 + y**2) / 2
    term = lg**2
    H = sp.hessian(term, (x, y))
    # the Levi coefficient d^2/dz dzbar is a quarter of the Laplacian
    assert sp.simplify((H[0, 0] + H[1, 1]) / 4 - 1 / (2 * r2)) == 0
    block = sp.Matrix(
        [[(y * y - x * x) * lg + x * x, x * y * (1 - 2 * lg)], [x * y * (1 - 2 * lg), (x * x - y * y) * lg + y * y]]
    )
    assert sp.simplify(H - 2 / r2**2 * block) == sp.zeros(2, 2)
    assert sp.simplify(block.det() - r2**2 * (lg - lg**2)) == 0
    assert sp.simplify(block.trace() - r2) == 0
    # the Laurent forms the proof uses, in x, y, L = log|z| and R = |z|^2
    at_xy = {scenarios.X: x, scenarios.Y: y, scenarios.L: lg, scenarios.R: r2}

    def sym(form):
        return sum(c * sp.Mul(*(at_xy[j] ** k for j, k in m)) for m, c in form.items())

    forms = sp.Matrix([[sym(f) for f in row] for row in scenarios.HESSIAN_BLOCK])
    assert sp.simplify(forms - block) == sp.zeros(2, 2)
    assert sp.simplify(forms.trace() - sym(scenarios.BLOCK_TRACE)) == 0
    assert sp.simplify(forms.det() - sym(scenarios.BLOCK_DET)) == 0
    assert sp.simplify(sym(scenarios.BLOCK_TRACE) / (2 * r2**2) - (H[0, 0] + H[1, 1]) / 4) == 0
    for zj in (1.5 + 0.5j, -0.3 + 2.2j, 2.0 - 1.0j, 0.7 - 0.1j, math.e):
        at = {x: zj.real, y: zj.imag}
        want = np.array(H.subs(at).evalf(30).tolist(), dtype=float)
        assert np.allclose(2.0 / abs(zj) ** 4 * np.array(hessian_block(zj)), want, rtol=1e-12, atol=1e-15)
        assert hessian_block_det(zj) == pytest.approx(float(block.det().subs(at).evalf(30)), rel=1e-12, abs=1e-15)
        assert hessian_block_trace(zj) == pytest.approx(float(r2.subs(at)), rel=1e-15)
        levi = float(((H[0, 0] + H[1, 1]) / 4).subs(at).evalf(30))
        assert levi_form(CPoint.from_complex([zj]), [1.0]) == pytest.approx(levi, rel=1e-12)


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
    # the radius safety * min(e - m, m - 1) is 0 through the safety factor
    # (room 7e-11), or through epsilon (m rounds to 1), and each is named
    with pytest.raises(DomainError, match=r"^safety = .* raise --safety$"):
        up_radius(2, 1e-20, 1e-320)
    with pytest.raises(DomainError, match=r"^epsilon = 1e-40 is too small at n = 2"):
        up_radius(2, 1e-40, 0.5)


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
