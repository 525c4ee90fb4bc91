"""Certificate pipelines, report serialization, and the command line."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import cechcert
from cechcert import cli, covers, scenarios
from cechcert.bundles import (
    BundleData,
    BundleIso,
    chern_cocycle,
    glue,
    restrict_to_sets,
    trivial_bundle,
    validate_cocycle,
)
from cechcert.cli import main
from cechcert.errors import DomainError, ResourceError, SamplingError
from cechcert.geometry import Region, ball_region, hessian_block_det, levi_form
from cechcert.hexpr import Const, Coord, IntPower, MatExpr, Product, Sum
from cechcert.nerve import IntCochain, build_nerve, cohomology, delta_rows, is_coboundary
from cechcert.report import CertificateReport, emit_report
from cechcert.scenarios import (
    ScenarioConfig,
    hessian_scan_rows,
    run_dim2,
    run_dimn,
    torus_rank_table,
)

from tube_samplers import contraction_residual, sample_boundary, sample_tube


def _fast_cfg(**kw) -> ScenarioConfig:
    base = dict(samples=300, run_connectivity=False)
    base.update(kw)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def dim2_report():
    return run_dim2(_fast_cfg())


@pytest.fixture(scope="module")
def dimn_report():
    return run_dimn(_fast_cfg())


def test_dim2_passes(dim2_report):
    assert dim2_report.overall_pass
    names = [c.name for c in dim2_report.checks]
    for want in (
        "overlap-two-components",
        "h1-rank-and-generator",
        "flat-obstruction",
        "periodicity",
        "tube-transport",
        "torus-inside-tube",
    ):
        assert want in names


def _chain(witness: dict) -> dict:
    return {(tuple(e["simplex"]), e["component"]): e["value"] for e in witness["values"]}


def test_dim2_witnesses_are_the_two_component_loop(dim2_report):
    metrics = {c.name: c.metrics for c in dim2_report.checks}
    h1 = metrics["h1-rank-and-generator"]["coboundary"]["witness"]
    flat = metrics["flat-obstruction"]["flat"]["verdict"]["witness"]
    loop = {((0, 1), 0): 1, ((0, 1), 1): -1}
    assert h1["modulus"] == 0 and _chain(h1) in (loop, {k: -v for k, v in loop.items()})
    assert flat["modulus"] == 2 and _chain(flat) == {k: v % 2 for k, v in loop.items()}


@pytest.mark.parametrize("n", [2, 3])
def test_dimn_clutching_witness_pairs_to_one_with_the_chern_cocycle(n, monkeypatch):
    calls = []
    real = scenarios.is_coboundary

    def recording(nerve, c):
        verdict = real(nerve, c)
        calls.append((c, verdict))
        return verdict

    monkeypatch.setattr(scenarios, "is_coboundary", recording)
    rep = run_dimn(_fast_cfg(n=n))
    metrics = {c.name: c.metrics for c in rep.checks}
    reported = [
        metrics["clutching-bundle"]["chern_coboundary"],
        metrics["glued-class-obstruction"]["chern_coboundary"],
    ]
    assert [v.to_jsonable() for _, v in calls] == reported
    for c, verdict in calls:
        assert verdict.modulus == 0
        assert abs(sum(v * c.get(*key) for key, v in verdict.witness.values.items())) == 1


def test_dim2_debug_cocycle_fails(monkeypatch):
    # 1 on both overlap components is the coboundary of the 0-cochain (0, 1)
    def coboundary_cochain():
        return IntCochain(1, "Z", {((0, 1), 0): 1, ((0, 1), 1): 1})

    monkeypatch.setattr(covers, "dim2_generator_cochain", coboundary_cochain)
    rep = run_dim2(_fast_cfg())
    assert not rep.overall_pass
    status = {c.name: c.status for c in rep.checks}
    assert status["h1-rank-and-generator"] == "fail"


def test_dim2_debug_scale_fails(monkeypatch):
    # the full-scale push has trivial transitions, so the flat obstruction is gone
    push = scenarios.exp_sequence_push
    monkeypatch.setattr(scenarios, "exp_sequence_push", lambda nerve, c: push(nerve, c, "full"))
    rep = run_dim2(_fast_cfg())
    assert not rep.overall_pass
    status = {c.name: c.status for c in rep.checks}
    assert status["flat-obstruction"] == "fail"


def test_dimn_passes(dimn_report):
    assert dimn_report.overall_pass
    names = [c.name for c in dimn_report.checks]
    for want in (
        "tube-bounded",
        "levi-lower-bound",
        "contraction-identity",
        "hessian-pd-at-p",
        "negative-control-eps-n",
        "up-ball",
        "tube-not-convex",
        "connectivity",
        "clutching-bundle",
        "overlap-containment-and-glue",
        "glued-class-obstruction",
    ):
        assert want in names
    assert "lcex" in dimn_report.artifacts


def test_dimn_trusted_checks_do_not_hide_failures(dimn_report):
    trusted = [c for c in dimn_report.checks if c.status == "trusted"]
    assert trusted  # connectivity skip plus the analytic facts
    assert all(c.status in ("pass", "trusted") for c in dimn_report.checks)


def test_dimn_eps_at_threshold_fails():
    rep = run_dimn(_fast_cfg(epsilon=2.5))
    assert not rep.overall_pass
    status = {c.name: c.status for c in rep.checks}
    assert status["up-ball"] == "fail"
    assert status["hessian-pd-at-p"] == "fail"


def test_dimn_rejects_bad_config():
    with pytest.raises(DomainError):
        run_dimn(_fast_cfg(epsilon=-1.0))
    with pytest.raises(DomainError):
        run_dimn(_fast_cfg(n=1))


def test_dim2_passes_at_zero_tolerance():
    # the tube bundle's identities hold exactly, so tol_cocycle = 0 is no failure
    assert run_dim2(_fast_cfg(tol_cocycle=0.0)).overall_pass


def test_report_config_echoes_the_fields_its_pipeline_reads(dim2_report, dimn_report):
    assert set(json.loads(dim2_report.to_json())["config"]) == {"r", "samples", "seed", "tol_cocycle"}
    assert set(json.loads(dimn_report.to_json())["config"]) == {
        "n", "epsilon", "seed", "safety", "tol_cocycle", "run_connectivity",
    }


def test_report_json_roundtrip(dim2_report):
    payload = json.loads(dim2_report.to_json())
    assert payload["schema_version"] == 1
    assert payload["scenario"] == "dim2"
    assert payload["overall"] == "pass"
    assert {c["name"] for c in payload["checks"]} == {c.name for c in dim2_report.checks}


def test_report_deterministic_bytes():
    a = run_dim2(_fast_cfg()).to_json()
    b = run_dim2(_fast_cfg()).to_json()
    assert a == b


def test_report_duplicate_name_rejected():
    rep = CertificateReport("x", {})
    rep.add("a", True)
    with pytest.raises(ValueError):
        rep.add("a", False)
    with pytest.raises(ValueError):
        rep.add_trusted("a", "note")


def test_emit_report(tmp_path, dim2_report):
    path = tmp_path / "r.json"
    emit_report(dim2_report, str(path), "json")
    assert json.loads(path.read_text())["scenario"] == "dim2"
    emit_report(dim2_report, str(tmp_path / "r.txt"), "text")
    assert "overall" in (tmp_path / "r.txt").read_text()
    with pytest.raises(OSError):
        emit_report(dim2_report, str(tmp_path / "nope" / "r.json"), "json")
    with pytest.raises(ValueError):
        emit_report(dim2_report, str(path), "yaml")


def test_torus_rank_table():
    rows = torus_rank_table(2)
    assert [r["rank"] for r in rows] == [1, 2, 1]
    assert all(r["rank"] == r["expected"] for r in rows)
    assert all(r["torsion"] == [] for r in rows)


def test_torus_rank_table_n4_low_degrees():
    # H^0..H^2 of the 16-set sector cover of the 4-torus tube (Kuenneth: 1, 4, 6)
    rows = torus_rank_table(4, k_max=3)
    assert [r["rank"] for r in rows] == [1, 4, 6]
    assert all(r["torsion"] == [] for r in rows)


def test_hessian_scan_rows():
    rows = hessian_scan_rows(0.5, 3.5, 100)
    assert len(rows) == 100
    mid = [r for r in rows if 1.05 < r["modulus"] < math.e - 0.05]
    assert mid and all(r["definite"] for r in mid)
    tails = [r for r in rows if r["modulus"] < 0.95 or r["modulus"] > math.e + 0.05]
    assert tails and not any(r["definite"] for r in tails)


def test_cli_dim2(tmp_path):
    out = tmp_path / "dim2.json"
    code = main(["dim2", "--samples", "300", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["overall"] == "pass"


def test_cli_dimn_failure_exit(tmp_path):
    out = tmp_path / "dimn.json"
    code = main(["dimn", "--epsilon", "2.5", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["overall"] == "fail"


def test_cli_dimn_small_hole_passes(tmp_path):
    # near eps = n the hole at p is small; the witnesses on the diagonal ray
    # through p still find both components of the log-moduli image
    out = tmp_path / "dimn.json"
    assert main(["dimn", "--n", "2", "--epsilon", "1.9", "--out", str(out)]) == 0
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["connectivity"]["status"] == "pass"
    metrics = checks["connectivity"]["metrics"]
    assert metrics["shell_outer_log_radius"] < metrics["omega_log_ball_radius"]


def test_cli_refuses_sector_nerves_past_the_limit(tmp_path, capsys):
    # the refusal comes before any set, sample or simplex is built: the rank
    # table's 2^n-set nerve past its size limit, and dimn past its ceiling
    ceiling = scenarios.MAX_DIMN_N
    for argv, message in (
        (["cohomology-torus", "--n", "5"], "n = 5: the sector nerve has at least"),
        (
            ["dimn", "--n", str(ceiling + 1)],
            f"n = {ceiling + 1}: the tube pipeline takes n up to {ceiling}",
        ),
        (["dimn", "--n", "1000"], "n = 1000: the tube pipeline takes n up to"),
    ):
        t0 = time.monotonic()
        assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
        assert time.monotonic() - t0 < 2.0
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def test_nerve_limit_accepts_dimn_n5_and_torus_n4(monkeypatch):
    # the first call of run_dimn into another module (Omega's radius, in the
    # boundedness check) and the first cover of the rank table run only past
    # the size checks
    monkeypatch.setattr(covers, "omega_radius", _reached)
    monkeypatch.setattr(covers, "torus_cover", _reached)
    for n in (5, 6, scenarios.MAX_DIMN_N):
        with pytest.raises(_Reached):
            run_dimn(_fast_cfg(n=n))
    with pytest.raises(_Reached):
        torus_rank_table(4)
    with pytest.raises(ResourceError, match=f"n = {scenarios.MAX_DIMN_N + 1}: the tube pipeline"):
        run_dimn(_fast_cfg(n=scenarios.MAX_DIMN_N + 1))
    with pytest.raises(ResourceError, match="n = 5: the sector nerve has at least 4,514,872 simplices"):
        torus_rank_table(5)


def test_dimn_up_ball_leaving_the_definite_window_fails(monkeypatch):
    # a ball about p reaching past |z_j| = e: some Hessian block is not definite
    n, eps = 2, 1.0
    p = covers.p_point(n, eps)
    radius = 1.01 * (math.e - abs(p.z(0)))
    monkeypatch.setattr(covers, "up_ball", lambda n, eps, safety: ball_region(p.xy, radius))
    rep = run_dimn(_fast_cfg())
    check = {c.name: c for c in rep.checks}["up-ball"]
    assert check.status == "fail"
    assert check.metrics["modulus_range"][1] > math.e


def test_dimn_passes_at_tiny_epsilon():
    # p = exp(sqrt(eps/n)) is 1 + 7e-11 here, so U_p still has a radius
    assert run_dimn(_fast_cfg(epsilon=1e-20)).overall_pass


def test_dimn_runs_the_four_set_cover_past_the_old_nerve_limit(monkeypatch):
    # no region is rejection-sampled, and the glued cover is the four sector
    # sets plus Omega' at every n
    def no_sampling(self, count, rng):
        raise AssertionError(f"dimn sampled region {self.name!r}")

    monkeypatch.setattr(Region, "sample", no_sampling)
    rep = run_dimn(_fast_cfg(n=8))
    assert rep.overall_pass
    metrics = {c.name: c.metrics for c in rep.checks}
    clutch = metrics["clutching-bundle"]
    assert clutch["h2_expected"] == clutch["h2_rank"] == 1
    assert clutch["cocycle"]["points_checked"] == 16
    assert all(clutch["slice"].values())
    assert rep.artifacts["lcex"]["cover"]["ambient"] == "G_4|Omega_prime"
    assert len(rep.artifacts["lcex"]["cover"]["sets"]) == 5


def _check(rep, name):
    return {c.name: c for c in rep.checks}[name]


@pytest.mark.parametrize("n", [3, 4])
def test_slice_cover_agrees_with_the_full_sector_cover(n):
    """Oracle: steps 8-10 on the full 2^n-set sector cover give the statuses
    the four-set slice cover gives, and the iota-image of the slice witness
    (the n = 2 witness: the slice nerve is n = 2's) is a 2-cycle of the full
    nerve that pairs to +-1 with its Chern cocycle."""
    eps, safety, k_max = n / 2.0, 0.5, scenarios.DIMN_KMAX
    rep = run_dimn(_fast_cfg(n=n))
    status = {c.name: c.status for c in rep.checks}
    cover = covers.torus_cover(n, eps)
    nerve = build_nerve(cover, k_max, covers.torus_resolution(n, eps, k_max))
    lnt = covers.lnt_bundle(cover, nerve)
    chern = chern_cocycle(lnt)
    h2 = cohomology(nerve, 2)
    clutching = (
        validate_cocycle(lnt, tol=0.0).passed
        and not is_coboundary(nerve, chern).yes
        and h2.free_rank == math.comb(n, 2)
        and not h2.torsion
    )
    up = covers.up_ball(n, eps, safety)
    out_cover, out_res = covers.one_set_cover(
        covers.omega_prime_region(n, eps, up), covers.outer_rep(n, eps)
    )
    triv = trivial_bundle(out_cover, build_nerve(out_cover, 1, out_res))
    iso = BundleIso({(0, 0): {None: MatExpr(((Const(1),),))}})
    lcex, iso_rep, coc_rep = glue(
        lnt, triv, iso, covers.glued_resolution(n, eps, safety, k_max), k_max=k_max, tol=0.0
    )
    glued_class = (
        not is_coboundary(lcex.nerve, chern_cocycle(lcex)).yes
        and restrict_to_sets(lcex, list(range(2**n))).transitions == lnt.transitions
    )
    full = {
        "clutching-bundle": clutching,
        "overlap-containment-and-glue": iso_rep.passed and coc_rep.passed,
        "glued-class-obstruction": glued_class,
    }
    assert all(full.values())
    assert {name: status[name] for name in full} == {name: "pass" for name in full}

    # iota maps set S_ab of the slice cover into S_abA...A of the full cover
    full_index = {
        i: covers.sector_letters(n).index(letters + ("A",) * (n - 2))
        for i, letters in enumerate(covers.sector_letters(2))
    }
    slice_nerve = build_nerve(
        covers.torus_cover(n, eps, 2), k_max, covers.torus_resolution(n, eps, k_max, 2)
    )
    witness = _check(rep, "clutching-bundle").metrics["chern_coboundary"]["witness"]
    image = {}
    for e in witness["values"]:
        s = tuple(full_index[i] for i in e["simplex"])
        assert list(s) == sorted(s)
        rep_point = slice_nerve.components(tuple(e["simplex"]))[e["component"]]
        image[(s, nerve.locate(s, rep_point))] = e["value"]
    basis = {key: r for r, key in enumerate(nerve.basis(2))}
    rows = delta_rows(nerve, 1)
    boundary = {}
    for key, v in image.items():
        for col, entry in rows[basis[key]].items():
            boundary[col] = boundary.get(col, 0) + v * entry
    assert not any(boundary.values())
    assert abs(sum(v * chern.get(*key) for key, v in image.items())) == 1


def test_dimn_slice_check_fails_on_a_transition_in_z3(monkeypatch):
    # scaling the frame of set 0 by z_3 keeps a cocycle and its Chern class,
    # but the bundle is no longer pulled back from n = 2
    real = covers.lnt_bundle

    def gauged(cover, nerve):
        b = real(cover, nerve)
        table = dict(b.transitions)
        for j in range(1, len(cover.sets)):
            table[(0, j)] = {
                ci: MatExpr(((Product((b.edge_matrix(0, j, ci).entries[0][0], Coord(2))),),))
                for ci in range(len(nerve.components((0, j))))
            }
        return BundleData(cover, nerve, 1, table)

    monkeypatch.setattr(covers, "lnt_bundle", gauged)
    check = _check(run_dimn(_fast_cfg(n=3)), "clutching-bundle")
    assert check.status == "fail"
    assert check.metrics["cocycle"]["passed"]
    assert not check.metrics["chern_coboundary"]["coboundary"]
    assert check.metrics["slice"] == {
        "sets_equal_n2": True,
        "transitions_in_z1_z2": False,
        "representatives_located": True,
    }


def test_dimn_slice_check_fails_on_a_set_with_an_arc_on_z3(monkeypatch):
    # S_AA cut down to the arc A of z_3: the slice representatives stay in
    # it, but its constraint tree is no longer the n = 2 sector's
    real = covers.torus_cover

    def with_z3_arc(n, eps, d=None):
        cover = real(n, eps, d)
        if n == 3:
            name, reg = cover.sets[0]
            cover.sets[0] = (name, Region(name, covers._sector_constraint(("A",) * 3, eps), reg.bbox))
        return cover

    monkeypatch.setattr(covers, "torus_cover", with_z3_arc)
    check = _check(run_dimn(_fast_cfg(n=3)), "clutching-bundle")
    assert check.status == "fail"
    assert check.metrics["slice"] == {
        "sets_equal_n2": False,
        "transitions_in_z1_z2": True,
        "representatives_located": True,
    }


def test_dimn_glued_restriction_differing_from_the_clutching_bundle_fails(monkeypatch):
    # the glued bundle restricted to the sector sets must carry the clutching
    # bundle's transitions verbatim; doubling one of them fails step 10 alone
    real = scenarios.restrict_to_sets

    def altered(b, keep):
        r = real(b, keep)
        table = dict(r.transitions)
        edge = min(table)
        table[edge] = {
            ci: MatExpr(((Product((m.entries[0][0], Const(2))),),)) for ci, m in table[edge].items()
        }
        return BundleData(r.cover, r.nerve, r.rank, table)

    monkeypatch.setattr(scenarios, "restrict_to_sets", altered)
    rep = run_dimn(_fast_cfg())
    check = _check(rep, "glued-class-obstruction")
    assert check.status == "fail"
    assert check.metrics["restriction_identical"] is False
    assert not check.metrics["chern_coboundary"]["coboundary"]
    assert [c.name for c in rep.checks if c.status == "fail"] == ["glued-class-obstruction"]
    assert rep.to_jsonable()["overall"] == "fail"


def _shrunken_omega_radius(n, eps):
    # radius^2 = 0.9 n e^{2 sqrt(eps)}: below the tube's supremum of |z|^2
    return math.sqrt(0.9 * n) * math.exp(math.sqrt(eps))


def _wrong_contraction_exponent(base, k):
    # (1 - t)^3 on the scaled side of the contraction identity
    one_minus_t = Sum((Const(1), Product((Const(-1), Coord(2)))))
    return IntPower(base, 3 if base == one_minus_t else k)


@pytest.mark.parametrize(
    "name, target, attr, mutant",
    [
        pytest.param(name, *rest, id=name)
        for name, *rest in (
            ("tube-bounded", covers, "omega_radius", _shrunken_omega_radius),
            ("levi-lower-bound", scenarios, "levi_form", lambda z, w: 0.5 * levi_form(z, w)),
            ("contraction-identity", scenarios, "IntPower", _wrong_contraction_exponent),
            ("negative-control-eps-n", scenarios, "hessian_block_det", lambda z: hessian_block_det(z) + 1e-6),
        )
    ],
)
def test_dimn_exact_tube_check_can_fail(name, target, attr, mutant, monkeypatch):
    # at eps = n the pipeline stops after the tube checks, so a mutant that
    # would upset a later step (Omega's radius) reaches only its own check
    cfg = _fast_cfg(n=2, epsilon=2.0)
    assert _check(run_dimn(cfg), name).status == "pass"
    monkeypatch.setattr(target, attr, mutant)
    assert _check(run_dimn(cfg), name).status == "fail"


def test_dimn_draws_no_random_numbers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_dimn asked for a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    for n in (2, 3):
        assert run_dimn(ScenarioConfig(n=n)).overall_pass


def test_dimn_checks_and_artifacts_are_identical_across_seeds():
    def body(seed):
        payload = json.loads(run_dimn(ScenarioConfig(n=2, seed=seed)).to_json())
        assert payload["config"]["seed"] == seed
        return json.dumps([payload["checks"], payload["artifacts"]], sort_keys=True)

    assert body(0) == body(1) == body(7)


@pytest.mark.parametrize("n", [2, 3])
def test_dimn_tube_checks_agree_with_the_sampled_oracle(n):
    # the random samplers the closed-form checks replaced never find a point
    # past the bounds those checks certify
    eps = n / 2.0
    checks = {c.name: c.metrics for c in run_dimn(_fast_cfg(n=n)).checks}
    rng = np.random.default_rng(n)
    sup = checks["tube-bounded"]["sup_norm_sq"]
    assert all(sum(abs(z.z(j)) ** 2 for j in range(n)) < sup for z in sample_tube(n, eps, 2000, rng))
    lower = checks["levi-lower-bound"]["lower_coeff"]
    for z in sample_boundary(n, eps, 2000, rng):
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert levi_form(z, w) >= lower * float(np.sum(np.abs(w) ** 2)) - 1e-12
    for z in sample_tube(n, eps, 500, rng):
        assert contraction_residual(z, float(rng.uniform(0.0, 1.0))) <= 1e-12
    for z in sample_boundary(n, float(n), 2000, rng):
        assert min(hessian_block_det(z.z(j)) for j in range(n)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_dimn_up_ball_reaching_a_b_arc_fails_the_overlap_check(n, monkeypatch):
    # 3 (m - r)^2 < r^2: the ball about p reaches points with x_j < |z_j|/2;
    # at n = 3 it also reaches the slice z_3 = 1, at distance m - 1 from p
    eps = n / 2.0
    p = covers.p_point(n, eps)
    radius = 0.7 * abs(p.z(0))
    monkeypatch.setattr(covers, "up_ball", lambda n, eps, safety: ball_region(p.xy, radius))
    rep = run_dimn(_fast_cfg(n=n))
    check = _check(rep, "overlap-containment-and-glue")
    assert check.status == "fail"
    assert check.metrics["overlap_in_base_sector"]
    assert not check.metrics["overlap_only_base_sector"]
    glued = _check(rep, "glued-class-obstruction")
    assert glued.metrics["slice_distance_to_p"] == pytest.approx(math.sqrt(n - 2) * (abs(p.z(0)) - 1))
    assert glued.status == ("pass" if n == 2 else "fail")


@pytest.mark.parametrize(
    "argv",
    [
        ["hessian-scan", "--samples", "5"],
        ["cohomology-torus", "--budget-nodes", "10"],
        ["dim2", "--n", "3"],
        ["selftest", "--n", "3"],
        ["dimn", "--delta", "0.3"],
        ["dim2", "--epsilon", "5"],
        ["dim2", "--step", "9"],
        ["dim2", "--safety", "0.2"],
        ["dim2", "--tol-chern", "1"],
        ["dim2", "--budget-nodes", "3"],
        ["dimn", "--r", "9"],
        ["dimn", "--samples", "300"],
        ["dimn", "--step", "0.1"],
        ["dimn", "--budget-nodes", "1000"],
        ["dimn", "--tol-chern", "1"],
        ["selftest", "--tol-chern", "1"],
        ["selftest", "--step", "9"],
        ["selftest", "--budget-nodes", "3"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_cli_rejects_flags_a_command_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_config_error_exit(tmp_path):
    assert main(["dimn", "--epsilon", "-1", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["dim2", "--samples", "100", "--out", str(tmp_path / "no" / "x.json")]) == 2


def test_cli_rejects_zero_samples(tmp_path, capsys):
    assert main(["dim2", "--samples", "0", "--out", str(tmp_path / "x.json")]) == 2
    assert "samples must be positive" in capsys.readouterr().err
    with pytest.raises(ValueError, match="r must be positive"):
        ScenarioConfig(r=0.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dimn", "--epsilon", "nan"], "epsilon must be finite"),
        (["dimn", "--epsilon", "inf"], "epsilon must be finite"),
        (["dimn", "--epsilon", "1e-300"], "epsilon = 1e-300 is too small at n = 2"),
        (["dim2", "--r", "inf"], "r must be finite"),
        (["cohomology-torus", "--epsilon", "nan"], "epsilon must be finite"),
        (["cohomology-torus", "--epsilon", "inf"], "epsilon must be finite"),
        (["hessian-scan", "--lo", "nan"], "lo must be finite"),
        (["hessian-scan", "--hi", "inf"], "hi must be finite"),
        (["hessian-scan", "--count", "0"], "count must be at least 1, got 0"),
        (["hessian-scan", "--count", "-1"], "count must be at least 1, got -1"),
    ],
    ids=[
        "dimn-epsilon-nan",
        "dimn-epsilon-inf",
        "dimn-epsilon-1e-300",
        "dim2-r-inf",
        "torus-epsilon-nan",
        "torus-epsilon-inf",
        "hessian-lo-nan",
        "hessian-hi-inf",
        "hessian-count-0",
        "hessian-count-negative",
    ],
)
def test_cli_rejects_non_finite_settings(argv, message, tmp_path, capsys):
    # and counts below one, which leave nothing to scan, and an epsilon so
    # small that p rounds onto the torus, which leaves U_p no radius
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_cli_computation_error_exit(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise SamplingError("no in-region point found")

    monkeypatch.setattr(cli, "run_dimn", fail)
    assert main(["dimn", "--out", str(tmp_path / "x.json")]) == 2
    assert "error: no in-region point found" in capsys.readouterr().err


def test_cli_crash_exit(tmp_path, monkeypatch, capsys):
    # exit 1 means a failed check; an exception no handler expects is a crash
    def crash(cfg):
        raise TypeError("bug in run_dimn")

    monkeypatch.setattr(cli, "run_dimn", crash)
    assert main(["dimn", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "TypeError: bug in run_dimn" in err


def test_cli_dim2_without_shifted_pairs_is_refused(tmp_path, capsys):
    # no 2 pi shift of x stays in D_r for r <= pi, so periodicity has no pair
    assert main(["dim2", "--r", "3", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "r = 3.0" in err and "r > pi" in err
    assert not (tmp_path / "x.json").exists()


def test_dim2_check_cover_bug_propagates(monkeypatch):
    # only a ResolutionError reads as a failed cover check; a bug must surface
    def broken(cover, rng, samples):
        raise TypeError("bug in check_cover")

    monkeypatch.setattr(scenarios, "check_cover", broken)
    with pytest.raises(TypeError, match="bug in check_cover"):
        run_dim2(_fast_cfg())


def test_cli_torus_table(tmp_path):
    out = tmp_path / "ranks.json"
    code = main(["cohomology-torus", "--n", "2", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["rank"] for r in rows] == [1, 2, 1]


def test_cli_torus_table_accepts_seed(tmp_path):
    # the rank table ignores --seed, but the benchmark passes it to every command
    out = tmp_path / "ranks.json"
    assert main(["cohomology-torus", "--n", "2", "--seed", "1", "--out", str(out)]) == 0
    assert [r["rank"] for r in json.loads(out.read_text())] == [1, 2, 1]


def test_cli_torus_table_at_epsilon_beyond_n(tmp_path):
    # every sector intersection is an argument sector times the ball rho < eps,
    # so the table is the torus's for every finite eps > 0, eps >= n included
    out = tmp_path / "ranks.json"
    assert main(["cohomology-torus", "--n", "2", "--epsilon", "5", "--out", str(out)]) == 0
    assert [r["rank"] for r in json.loads(out.read_text())] == [1, 2, 1]


def test_cli_torus_table_refuses_n_below_one(tmp_path, capsys):
    out = tmp_path / "ranks.json"
    for n in ("0", "-3"):
        assert main(["cohomology-torus", "--n", n, "--out", str(out)]) == 2
        assert f"n must be at least 1, got {n}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["cohomology-torus", "--n", "1", "--out", str(out)]) == 0
    assert [r["rank"] for r in json.loads(out.read_text())] == [1, 1]


def test_cli_torus_table_fails_on_torsion(tmp_path, monkeypatch, capsys):
    # Kuenneth predicts free cohomology; a torsion row fails the table even
    # when every rank matches
    def with_torsion(n, eps=None, k_max=None):
        rows = torus_rank_table(n, eps, k_max)
        rows[1]["torsion"] = [2]
        return rows

    monkeypatch.setattr(cli, "torus_rank_table", with_torsion)
    out = tmp_path / "ranks.json"
    assert main(["cohomology-torus", "--n", "2", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())
    assert [r["rank"] for r in rows] == [r["expected"] for r in rows]
    assert "H^1: rank 2 (expected 2)" in capsys.readouterr().out


def test_cli_hessian_scan(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["hessian-scan", "--count", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "modulus,trace,det,definite"
    assert len(lines) == 51


def test_cli_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CECHCERT_OUT", str(tmp_path))
    code = main(["dim2", "--samples", "200"])
    assert code == 0
    assert (tmp_path / "dim2_report.json").exists()


_SCIPY_PROBE = """
import json, sys
import cechcert.cli
from cechcert.scenarios import ScenarioConfig
ScenarioConfig(seed=1)
out = sys.argv[1]
for argv in (
    ["selftest"],
    ["dim2", "--out", out + "/dim2.json"],
    ["dimn", "--n", "2", "--out", out + "/dimn2.json"],
    ["cohomology-torus", "--n", "2", "--out", out + "/torus2.json"],
    ["hessian-scan", "--out", out + "/hessian.csv"],
):
    if cechcert.cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded through the test modules
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == []
