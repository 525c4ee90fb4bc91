"""End-to-end acceptance checks for the certificate toolkit.

Each test prints a single pass/fail line for its criterion; the heavy
connectivity and pipeline runs use the shipped default configurations.
"""

import math
import time

import numpy as np
import pytest

from cechcert.bundles import (
    exp_sequence_push,
    flat_class_test,
    glue,
    restrict_to_sets,
    validate_cocycle,
)
from cechcert.covers import (
    dim2_cover,
    dim2_generator_cochain,
    dim2_resolution,
    g_eps_region,
    omega_minus_shell,
    up_ball,
)
from cechcert.geometry import (
    CPoint,
    hessian_block_det,
    hessian_block_trace,
    segment_convexity,
)
from cechcert.hexpr import Const
from cechcert.nerve import build_nerve, cohomology, is_coboundary
from cechcert.scenarios import (
    SAFETY_CONNECT,
    ScenarioConfig,
    connectivity_check,
    run_dim2,
    run_dimn,
    torus_rank_table,
)

from real_hessian import hessian_fd_residual, levi_form, real_hessian
from test_bundles import _ball_glue_instance
from tube_samplers import contraction_residual, sample_boundary, sample_tube


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_01_torus_rank_golden_values():
    t0 = time.monotonic()
    ok = True
    for n, want in ((2, [1, 2, 1]), (3, [1, 3, 3, 1])):
        rows = torus_rank_table(n)
        ok = ok and [r["rank"] for r in rows] == want
        ok = ok and all(r["torsion"] == [] for r in rows)
    ok = ok and time.monotonic() - t0 < 60.0
    _verdict(1, "torus rank table", ok)


def test_criterion_02_dim2_generator():
    t0 = time.monotonic()
    nerve = build_nerve(dim2_cover(4.0), 2, dim2_resolution())
    h1 = cohomology(nerve, 1, "Z")
    verdict = is_coboundary(nerve, dim2_generator_cochain())
    ok = (
        h1.free_rank == 1
        and h1.torsion == ()
        and not verdict.yes
        and time.monotonic() - t0 < 5.0
    )
    _verdict(2, "dim-2 generator", ok)


def test_criterion_03_dim2_bundle_obstruction():
    t0 = time.monotonic()
    nerve = build_nerve(dim2_cover(4.0), 2, dim2_resolution())
    c = dim2_generator_cochain()
    half = exp_sequence_push(nerve, c, scale="half")
    values = tuple(half.edge_matrix(0, 1, ci).entries[0][0] for ci in range(2))
    full = exp_sequence_push(nerve, c, scale="full")
    ok = (
        values == (Const(1), Const(-1))
        and not flat_class_test(half).trivializable
        and flat_class_test(full).trivializable
        and time.monotonic() - t0 < 5.0
    )
    _verdict(3, "dim-2 bundle obstruction", ok)


def test_criterion_04_hessian_formula_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    for n in (2, 3):
        for _ in range(60):
            mods = rng.uniform(0.5, 3.0, size=n)
            args = rng.uniform(-math.pi, math.pi, size=n)
            z = CPoint.from_complex(mods * np.exp(1j * args))
            worst = max(worst, hessian_fd_residual(z, 1e-4))
            count += 1
    ok = count >= 100 and worst <= 1e-5 and time.monotonic() - t0 < 10.0
    _verdict(4, "hessian fd fidelity", ok)


def test_criterion_05_pd_window():
    t0 = time.monotonic()
    sweep_ok = True
    for s in np.linspace(0.5, 3.4, 1000):
        d = hessian_block_det(complex(float(s), 0.0))
        inside = 1.0 < s < math.e
        if abs(s - 1.0) > 1e-6 and abs(s - math.e) > 1e-6 and (d > 0) != inside:
            sweep_ok = False
    pd_ok = True
    for n in (2, 3):
        eps = n / 2.0
        p = CPoint.from_complex([math.exp(math.sqrt(eps / n))] * n)
        pd_ok = pd_ok and float(np.min(np.linalg.eigvalsh(real_hessian(p)))) > 0
    rng = np.random.default_rng(11)
    neg_ok = True
    for n in (2, 3):
        for z in sample_boundary(n, float(n), 500, rng):
            if min(hessian_block_det(z.z(j)) for j in range(n)) > 1e-12:
                neg_ok = False
    ok = sweep_ok and pd_ok and neg_ok and time.monotonic() - t0 < 10.0
    _verdict(5, "pd window and negative control", ok)


def test_criterion_06_tube_identities():
    t0 = time.monotonic()
    n, eps = 2, 1.0
    rng = np.random.default_rng(6)
    pts = sample_tube(n, eps, 10_000, rng)
    ts = rng.uniform(0.0, 1.0, size=len(pts))
    contraction_ok = all(
        contraction_residual(z, float(t)) <= 1e-12 for z, t in zip(pts, ts)
    )
    bound = n * math.exp(2.0 * math.sqrt(eps))
    ball_ok = all(sum(abs(z.z(j)) ** 2 for j in range(n)) < bound for z in pts)
    lower = 1.0 / (2.0 * math.exp(2.0 * math.sqrt(eps)))
    levi_ok = True
    for z in sample_boundary(n, eps, 10_000, rng):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        if levi_form(z, w) - lower * float(np.sum(np.abs(w) ** 2)) < -1e-12:
            levi_ok = False
    ok = contraction_ok and ball_ok and levi_ok and time.monotonic() - t0 < 30.0
    _verdict(6, "tube identities", ok)


def test_criterion_07_convexity():
    t0 = time.monotonic()
    n, eps = 2, 1.0
    g = g_eps_region(n, eps)
    cap = g.intersect(up_ball(n, eps, 0.5), name="G&U_p")
    conv = segment_convexity(cap, 10_000, seed=0)
    witness = segment_convexity(g, 10_000, seed=0)
    explicit_mid_outside = not g.contains(
        CPoint(
            tuple(
                0.5
                * (
                    np.array(CPoint.from_complex([math.exp(0.9), 1.0]).xy)
                    + np.array(CPoint.from_complex([-math.exp(0.9), 1.0]).xy)
                )
            )
        ),
    )
    ok = (
        conv.ok
        and not witness.ok
        and explicit_mid_outside
        and time.monotonic() - t0 < 30.0
    )
    _verdict(7, "convexity of the capped tube", ok)


def test_criterion_08_connectivity():
    t0 = time.monotonic()
    n, eps = 2, ScenarioConfig().eps()
    ok, details = connectivity_check(n, eps, SAFETY_CONNECT)
    up = up_ball(n, eps, SAFETY_CONNECT)
    no_shell = omega_minus_shell(n, eps, details["delta"])
    witnesses = [CPoint(tuple(w["point"])) for w in details["witnesses"]]
    rhos = sorted(w["rho"] for w in details["witnesses"])
    ok = (
        ok
        and details["shell_outer_log_radius"] < details["omega_log_ball_radius"]
        and all(up.contains(w) and no_shell.contains(w) for w in witnesses)
        and rhos[0] < eps - details["delta"] < eps + details["delta"] < rhos[1]
        and time.monotonic() - t0 < 5.0
    )
    _verdict(8, "exact connectivity", ok)


def test_criterion_09_gluing_contract():
    t0 = time.monotonic()
    ok = True
    cases = 0
    for rank in (1, 2):
        for seed in range(10):
            bU, bV, iso, res = _ball_glue_instance(seed, rank)
            if not validate_cocycle(bU).passed:
                ok = False
            glued, iso_rep, coc_rep = glue(bU, bV, iso, res, k_max=2, tol=1e-9)
            ok = ok and iso_rep.max_residual < 1e-9 and coc_rep.passed
            back = restrict_to_sets(glued, [0, 1])
            ok = ok and back.transitions == bU.transitions
            cases += 1
    ok = ok and cases >= 20 and time.monotonic() - t0 < 60.0
    _verdict(9, "gluing contract", ok)


@pytest.fixture(scope="module")
def dimn_reports():
    out = {}
    for n in (2, 3):
        out[n] = run_dimn(ScenarioConfig(n=n))
    return out


def test_criterion_10_main_counterexample(dimn_reports):
    ok = True
    for n, rep in dimn_reports.items():
        ok = ok and rep.overall_pass
        by_name = {c.name: c for c in rep.checks}
        clutch = by_name["clutching-bundle"].metrics
        ok = ok and not clutch["chern_coboundary"]["coboundary"]
        glue_m = by_name["overlap-containment-and-glue"].metrics
        ok = ok and glue_m["glued_cocycle"]["max_residual"] < 1e-9
        obst = by_name["glued-class-obstruction"].metrics
        ok = ok and not obst["chern_coboundary"]["coboundary"]
        ok = ok and obst["ball_h1_rank"] == 0 and obst["ball_h2_rank"] == 0
    _verdict(10, "main counterexample certificate", ok)


def test_criterion_11_determinism():
    a = run_dim2(ScenarioConfig(run_connectivity=False)).to_json()
    b = run_dim2(ScenarioConfig(run_connectivity=False)).to_json()
    c = run_dimn(ScenarioConfig(run_connectivity=False)).to_json()
    d = run_dimn(ScenarioConfig(run_connectivity=False)).to_json()
    _verdict(11, "byte-identical reports", a == b and c == d)
