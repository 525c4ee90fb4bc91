"""Certificate pipelines, report serialization, and the command line."""

import csv
import io
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from cechcert.errors import DomainError, ResourceError, VerificationError
from cechcert.geometry import (
    CAnd,
    CLt,
    Region,
    SConst,
    SRho,
    SSum,
    SX,
    SY,
    ball_region,
    hessian_block_det,
    hessian_block_trace,
)
from cechcert.hexpr import Const, Coord, IntPower, Product, Sum
from cechcert.nerve import (
    AnalyticPatch,
    IntCochain,
    build_nerve,
    cohomology,
    delta_rows,
    is_coboundary,
)
from cechcert.report import CertificateReport, emit_report
from cechcert.scenarios import (
    ScenarioConfig,
    hessian_scan_rows,
    run_dim2,
    run_dimn,
    torus_rank_table,
)

from real_hessian import levi_form
from slab_periodicity import sampled_periodicity
from tube_samplers import contraction_residual, sample_boundary, sample_tube


def _fast_cfg(**kw) -> ScenarioConfig:
    base = dict(run_connectivity=False)
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


def _dim2_resolution_reading_x(j: int, dim2_resolution=covers.dim2_resolution):
    """dim2's resolution with an overlap locator that swaps the two labels
    where x_j > 0; the representatives, at x = 0, keep theirs.  The default
    binds the real dim2_resolution, so a monkeypatched one can call this."""
    res = dim2_resolution()
    patch = res.patches[(0, 1)]
    res.patches[(0, 1)] = AnalyticPatch(patch.reps, lambda p: patch.locate(p) ^ (p.xy[2 * j] > 0))
    return res


@pytest.mark.parametrize("reads", [None, 1, 0], ids=["dim2", "locator-reads-x2", "locator-reads-x1"])
@pytest.mark.parametrize("r", [3.15, 4.0, 7.0])
def test_batched_periodicity_matches_the_per_point_loop(r, reads):
    # the exact check passes dim2's locator, and then the per-point loop
    # finds no failing pair for any seed; it fails a locator that reads x1 or
    # x2 at every r, where the loop, with few sampled pairs near r = pi,
    # fails it for some seeds only
    res = covers.dim2_resolution() if reads is None else _dim2_resolution_reading_x(reads)
    cover = covers.dim2_cover(r)
    nerve = build_nerve(cover, 2, res)
    region = cover.intersection((0, 1))
    assert scenarios.periodicity_pairs(nerve, region) == (reads is None, 6)
    looped = {sampled_periodicity(nerve, region, np.random.default_rng(seed))[0] for seed in range(6)}
    assert (False in looped) == (reads is not None)


def test_periodicity_fails_an_overlap_that_couples_x_and_y():
    # x1 < 10 + y1 reads x and y at once, so the overlap is no box in x times
    # a set in y, even where the shifted pairs locate alike
    cover = covers.dim2_cover(4.0)
    nerve = build_nerve(cover, 2, covers.dim2_resolution())
    overlap = cover.intersection((0, 1))

    def with_conjunct(c):
        return Region("overlap", CAnd((overlap.constraint, c)), overlap.bbox)

    assert scenarios.periodicity_pairs(nerve, with_conjunct(CLt(SX(0), SSum((SConst(10.0), SY(0)))))) == (False, 6)
    # a bound in y alone keeps the box
    assert scenarios.periodicity_pairs(nerve, with_conjunct(CLt(SY(1), SConst(0.25)))) == (True, 6)


def test_dim2_periodicity_fails_when_the_overlap_locator_reads_x(monkeypatch, tmp_path):
    monkeypatch.setattr(covers, "dim2_resolution", lambda: _dim2_resolution_reading_x(0))
    out = tmp_path / "dim2.json"
    assert main(["dim2", "--out", str(out)]) == 1
    status = {c["name"]: c["status"] for c in json.loads(out.read_text())["checks"]}
    assert status["periodicity"] == "fail"


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_dim2_report_differs_from_the_per_point_loop_only_in_pairs_checked(seed, monkeypatch):
    # the seed draws the loop's sampled pairs; dim2 itself takes none
    batched = json.loads(run_dim2(ScenarioConfig()).to_json())
    monkeypatch.setattr(
        scenarios,
        "periodicity_pairs",
        lambda nerve, region: sampled_periodicity(nerve, region, np.random.default_rng(seed)),
    )
    looped = json.loads(run_dim2(ScenarioConfig()).to_json())
    pairs = [
        next(c for c in rep["checks"] if c["name"] == "periodicity")["metrics"].pop("pairs_checked")
        for rep in (batched, looped)
    ]
    assert pairs[0] == 6 and pairs[1] > 0
    assert batched == looped


@pytest.mark.parametrize("extra_ulps", [0, 1, 2, 3])
def test_dim2_just_above_pi_has_its_exact_pairs(extra_ulps, tmp_path):
    # a sampled pair would have to land in the strip x1 in (-r, r - 2 pi);
    # the exact pairs about the representatives lie in D_r for every r > pi,
    # down to the float 1 + extra_ulps ulps above pi
    just_above = math.nextafter(math.pi, 4)
    for _ in range(extra_ulps):
        just_above = math.nextafter(just_above, 4)
    for r in ("3.15", repr(just_above)):
        outs = [tmp_path / f"dim2_{run}.json" for run in range(2)]
        for out in outs:
            assert main(["dim2", "--r", r, "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        checks = {c["name"]: c for c in json.loads(outs[0].read_text())["checks"]}
        assert checks["periodicity"]["metrics"]["pairs_checked"] == 6


def test_dim2_reports_are_byte_identical_across_runs():
    # dim2 samples nothing, so it takes no seed and its config echoes r alone
    for r in (4.0, 3.15, math.nextafter(math.pi, 4)):
        first, second = (run_dim2(ScenarioConfig(r=r)).to_json() for _ in range(2))
        payload = json.loads(first)
        assert first == second and payload["config"] == {"r": r} and payload["overall"] == "pass"


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


def test_dim2_passes_at_zero_tolerance(dim2_report):
    # the tube bundle's identities hold exactly: a defect of 0 passes at any
    # tolerance, so the pipelines take none
    coc = next(c for c in dim2_report.checks if c.name == "tube-transport").metrics["cocycle"]
    assert coc["max_residual"] == 0.0 and coc["passed"]


def test_report_config_echoes_the_fields_its_pipeline_reads(dim2_report, dimn_report):
    assert json.loads(dim2_report.to_json())["config"] == {"r": 4.0}
    assert set(json.loads(dimn_report.to_json())["config"]) == {
        "n", "epsilon", "seed", "safety", "run_connectivity",
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
    rows = list(hessian_scan_rows(0.5, 3.5, 100))
    assert len(rows) == 100
    mid = [r for r in rows if 1.05 < r["modulus"] < math.e - 0.05]
    assert mid and all(r["definite"] for r in mid)
    tails = [r for r in rows if r["modulus"] < 0.95 or r["modulus"] > math.e + 0.05]
    assert tails and not any(r["definite"] for r in tails)


def _linspace_rows(lo, hi, count):
    # the rows as they were built before they streamed, from np.linspace
    rows = []
    for s in np.linspace(lo, hi, count):
        z = complex(float(s), 0.0)
        rows.append(
            {
                "modulus": float(s),
                "trace": hessian_block_trace(z),
                "det": hessian_block_det(z),
                "definite": hessian_block_det(z) > 0 and hessian_block_trace(z) > 0,
            }
        )
    return rows


@pytest.mark.parametrize("count", [1, 2, 1000])
def test_hessian_scan_csv_keeps_its_linspace_bytes(count, tmp_path):
    # csv.DictWriter is the oracle for the bytes, also at lo = hi and for
    # floats whose repr has an exponent
    out = tmp_path / "scan.csv"
    for lo, hi in ((0.5, 3.5), (1.5, 1.5), (1e-300, 1e50)):
        assert main(["hessian-scan", "--lo", str(lo), "--hi", str(hi), "--count", str(count), "--out", str(out)]) == 0
        want = io.StringIO(newline="")
        w = csv.DictWriter(want, fieldnames=["modulus", "trace", "det", "definite"])
        w.writeheader()
        w.writerows(_linspace_rows(lo, hi, count))
        assert out.read_bytes() == want.getvalue().encode()


_ENDPOINTS = st.one_of(st.floats(-1e6, 1e6), st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(_ENDPOINTS, _ENDPOINTS, st.integers(1, 300))
# numpy's own branch where the step underflows to 0, -0.0 at count 1, and a
# difference that overflows
@example(0.0, 5e-324, 3)
@example(1e-320, -1e-320, 7)
@example(-0.0, 1.0, 1)
@example(-1e308, 1e308, 5)
def test_scan_moduli_are_linspace_bit_for_bit(lo, hi, count):
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linspace(lo, hi, count).tolist()
    got = list(scenarios._linspace(lo, hi, count))
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in want]


def test_hessian_scan_rows_stream_without_a_list():
    tracemalloc.start()
    try:
        rows = hessian_scan_rows(0.5, 3.5, 10**6)
        first = list(itertools.islice(rows, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    step = 3.0 / (10**6 - 1)
    assert [r["modulus"] for r in first] == [i * step + 0.5 for i in range(5)]


def test_hessian_scan_rows_checks_its_settings_at_the_call():
    # not at the first row: the checks are eager, only the rows stream
    with pytest.raises(ValueError, match="count must be at least 1"):
        hessian_scan_rows(0.5, 3.5, 0)
    with pytest.raises(ValueError, match="hi must be finite"):
        hessian_scan_rows(0.5, math.inf, 10)


def test_hessian_scan_refuses_a_count_past_its_bound_before_any_row(tmp_path, capsys, monkeypatch):
    def unexpected(z):
        raise AssertionError("hessian-scan computed a row for a count it must refuse")

    monkeypatch.setattr(scenarios, "hessian_block_trace", unexpected)
    monkeypatch.setattr(scenarios, "hessian_block_det", unexpected)
    hessian_scan_rows(0.5, 3.5, scenarios.MAX_SCAN_ROWS)  # accepted; no row is drawn
    out = tmp_path / "scan.csv"
    for count in (scenarios.MAX_SCAN_ROWS + 1, 10**8):
        assert main(["hessian-scan", "--count", str(count), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: count must be at most 10,000,000, got {count:,}; lower --count" in err
        assert "Traceback" not in err and not out.exists()


def test_cli_dim2(tmp_path):
    out = tmp_path / "dim2.json"
    code = main(["dim2", "--out", str(out)])
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
        (["cohomology-torus", "--n", "5"], "n = 5: the sector nerve has more than 100,000 simplices"),
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
    with pytest.raises(ResourceError, match="n = 5: the sector nerve has more than 100,000 simplices"):
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


def test_dimn_names_safety_when_it_underflows_the_up_radius(tmp_path, capsys):
    # at epsilon = 1e-20 the room min(e - m, m - 1) is 7e-11, so the radius
    # underflows to 0 only through the safety factor, and the error names it
    out = tmp_path / "x.json"
    assert main(["dimn", "--epsilon", "1e-20", "--safety", "1e-320", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: safety = ") and "at n = 2, epsilon = 1e-20:" in lines[0]
    assert lines[0].endswith("raise --safety")
    assert not out.exists()


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
        validate_cocycle(lnt).passed
        and not is_coboundary(nerve, chern).yes
        and h2.free_rank == math.comb(n, 2)
        and not h2.torsion
    )
    up = covers.up_ball(n, eps, safety)
    out_cover, out_res = covers.one_set_cover(
        covers.omega_prime_region(n, eps, up), covers.outer_rep(n, eps)
    )
    triv = trivial_bundle(out_cover, build_nerve(out_cover, 1, out_res))
    iso = BundleIso({(0, 0): {None: Const(1)}})
    lcex, iso_rep, coc_rep = glue(lnt, triv, iso, covers.glued_resolution(n, eps, safety, k_max), k_max=k_max)
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
                ci: Product((b.transition(0, j, ci), Coord(2))) for ci in range(len(nerve.components((0, j))))
            }
        return BundleData(cover, nerve, table)

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


def test_dimn_slice_builds_the_n2_cover_only_when_n_exceeds_2(monkeypatch):
    # at n = 2 iota is the identity: the slice reuses the four-set cover and
    # nerve that run_dimn has built; at n = 3 it builds the n = 2 ones
    real_cover, real_build = covers.torus_cover, scenarios.build_nerve
    covers_made, nerves_of = [], []

    def cover_counted(*args):
        covers_made.append(args)
        return real_cover(*args)

    def build_counted(cover, *args):
        nerves_of.append(cover.names)
        return real_build(cover, *args)

    monkeypatch.setattr(covers, "torus_cover", cover_counted)
    monkeypatch.setattr(scenarios, "build_nerve", build_counted)
    sectors = [f"S_{a}{b}" for a in "AB" for b in "AB"]
    for n, eps, made in ((2, 1.0, [(2, 1.0, 2)]), (3, 1.5, [(3, 1.5, 2), (2, 1.5)])):
        covers_made.clear()
        nerves_of.clear()
        rep = run_dimn(_fast_cfg(n=n))
        assert covers_made == made
        assert nerves_of.count(sectors) == len(made)
        assert _check(rep, "clutching-bundle").metrics["slice"] == {
            "sets_equal_n2": True,
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
        table[edge] = {ci: Product((e, Const(2))) for ci, e in table[edge].items()}
        return BundleData(r.cover, r.nerve, table)

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
            ("levi-lower-bound", scenarios, "BLOCK_TRACE", {((scenarios.R, 1),): 2}),
            ("contraction-identity", scenarios, "IntPower", _wrong_contraction_exponent),
            ("negative-control-eps-n", scenarios, "BLOCK_DET", {m: -c for m, c in scenarios.BLOCK_DET.items()}),
        )
    ],
)
def test_dimn_exact_tube_check_can_fail(name, target, attr, mutant, fresh_identities, monkeypatch):
    # at eps = n the pipeline stops after the tube checks, so a mutant that
    # would upset a later step (Omega's radius) reaches only its own check
    cfg = _fast_cfg(n=2, epsilon=2.0)
    assert _check(run_dimn(cfg), name).status == "pass"
    monkeypatch.setattr(target, attr, mutant)
    scenarios.block_identities_hold.cache_clear()
    assert _check(run_dimn(cfg), name).status == "fail"


@pytest.fixture
def fresh_identities(monkeypatch):
    # block_identities_hold proves its identities once a process: a test that
    # patches the forms clears the cache after patching, and this clears it
    # again before monkeypatch restores the forms
    yield
    scenarios.block_identities_hold.cache_clear()


_XYL = ((scenarios.X, 1), (scenarios.Y, 1), (scenarios.L, 1))
_BLOCK_MUTANTS = {
    # x y (1 - L) off the diagonal, where the block has x y (1 - 2L)
    "wrong-block-entry": (
        "HESSIAN_BLOCK",
        tuple(tuple({**f, _XYL: -1} if _XYL in f else f for f in row) for row in scenarios.HESSIAN_BLOCK),
    ),
    "det-sign-flipped": ("BLOCK_DET", {m: -c for m, c in scenarios.BLOCK_DET.items()}),
    "trace-doubled": ("BLOCK_TRACE", {((scenarios.R, 1),): 2}),
    # dR/dx = x, where R = x^2 + y^2 gives 2x
    "wrong-chain-rule": (
        "_CHAIN",
        tuple({**d, scenarios.R: {((v, 1),): 1}} for v, d in zip((scenarios.X, scenarios.Y), scenarios._CHAIN)),
    ),
}


@pytest.mark.parametrize("mutant", sorted(_BLOCK_MUTANTS))
def test_block_identity_mutants_fail_the_hessian_checks(mutant, fresh_identities, monkeypatch):
    attr, value = _BLOCK_MUTANTS[mutant]
    assert scenarios.block_identities_hold()
    monkeypatch.setattr(scenarios, attr, value)
    scenarios.block_identities_hold.cache_clear()
    assert not scenarios.block_identities_hold()
    rep = run_dimn(_fast_cfg())
    assert [c.name for c in rep.checks if c.status == "fail"] == [
        "levi-lower-bound", "hessian-pd-at-p", "negative-control-eps-n"
    ]


def test_block_identities_are_proved_once_a_process(fresh_identities):
    scenarios.block_identities_hold.cache_clear()
    run_dimn(_fast_cfg(n=2))
    run_dimn(_fast_cfg(n=3, epsilon=3.0))
    assert scenarios.block_identities_hold.cache_info().misses == 1


def _g_eps_with(constraint):
    return lambda n, eps: Region("G", constraint, covers.g_eps_region(n, eps).bbox)


@pytest.mark.parametrize(
    "constraint",
    [
        CLt(SRho(), SConst(0.0)),
        CLt(SRho(), SConst(-1.0)),
        # rho > 1/2 as well: the torus, where rho = 0, is outside
        CAnd((CLt(SRho(), SConst(1.0)), CLt(SConst(0.5), SRho()))),
        CLt(SSum((SRho(), SConst(-1.0))), SConst(1.0)),
    ],
    ids=["bound-0", "bound-negative", "extra-conjunct", "not-rho"],
)
def test_dim2_torus_check_fails_for_a_tube_that_is_not_rho_below_a_positive_bound(constraint, monkeypatch):
    # only the torus check reads the tube through scenarios' own covers
    # module; the tube cover is built from the real one
    assert _check(run_dim2(_fast_cfg()), "torus-inside-tube").status == "pass"
    mutant = types.SimpleNamespace(**{**vars(covers), "g_eps_region": _g_eps_with(constraint)})
    monkeypatch.setattr(scenarios, "cv", mutant)
    rep = run_dim2(_fast_cfg())
    assert [c.name for c in rep.checks if c.status == "fail"] == ["torus-inside-tube"]


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
        ["dimn", "--tol-cocycle", "0"],
        ["dim2", "--samples", "300"],
        ["dim2", "--seed", "1"],
        ["dim2", "--tol-cocycle", "0"],
        ["selftest", "--samples", "300"],
        ["selftest", "--tol-cocycle", "0"],
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
    assert main(["dim2", "--out", str(tmp_path / "no" / "x.json")]) == 2


def test_config_rejects_nonpositive_r():
    for r in (0.0, -1.0):
        with pytest.raises(ValueError, match="r must be positive"):
            ScenarioConfig(r=r)


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
        (["cohomology-torus", "--epsilon", "1e308"], "epsilon = 1e+308: the tube's bound"),
        (["dimn", "--epsilon", "1e308"], "epsilon = 1e+308: R^4 overflows a float"),
        # Omega's radius itself rounds to infinity here, with e^sqrt(eps) finite
        (["dimn", "--n", "64", "--epsilon", "5e5"], "epsilon = 500000: R^4 overflows a float"),
        (["dim2", "--r", "1e308"], "r = 1e+308: r^2 overflows a float"),
        (["dim2", "--r", "1e-300"], "no 2 pi-shifted pair of overlap points lies in D_r for r = 1e-300"),
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
        "torus-epsilon-1e308",
        "dimn-epsilon-1e308",
        "dimn-n64-epsilon-5e5",
        "dim2-r-1e308",
        "dim2-r-1e-300",
    ],
)
def test_cli_rejects_non_finite_settings(argv, message, tmp_path, capsys):
    # and counts below one, which leave nothing to scan, an epsilon so small
    # that p rounds onto the torus, which leaves U_p no radius, an epsilon or
    # r so large that a float the pipeline needs overflows, and an r <= pi
    # (refused before r^2 can underflow to 0)
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_cli_computes_settings_inside_the_float_range(tmp_path, capsys):
    # e^sqrt(eps) is finite, so the table is computed; the dimn checks fail
    # at eps >= n (exit 1) but nothing overflows; r^2 is finite
    out = str(tmp_path / "x.json")
    assert main(["cohomology-torus", "--n", "2", "--epsilon", "5e5", "--out", out]) == 0
    assert main(["dimn", "--n", "2", "--epsilon", "3e4", "--out", out]) == 1
    assert main(["dim2", "--r", "1.3e154", "--out", out]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_dim2_refuses_r_up_to_pi_before_building(monkeypatch):
    def unexpected(*args):
        raise AssertionError("run_dim2 built a nerve for r <= pi")

    monkeypatch.setattr(scenarios, "build_nerve", unexpected)
    for r in (1e-300, 3.0, math.nextafter(math.pi, 0), math.pi):
        with pytest.raises(DomainError, match=f"r = {r}; the periodicity check needs r > pi"):
            run_dim2(ScenarioConfig(r=r))


@pytest.mark.parametrize("safety", ["1e-16", "1e-300"])
def test_dimn_refuses_a_safety_too_small_for_floats_before_building(safety, tmp_path, capsys, monkeypatch):
    # the point standing for U_p & tube rounds back onto p, on the tube's
    # boundary, so the glued nerve could not hold it
    def unexpected(*args):
        raise AssertionError("run_dimn built a nerve for a safety it must refuse")

    monkeypatch.setattr(scenarios, "build_nerve", unexpected)
    out = tmp_path / "x.json"
    assert main(["dimn", "--safety", safety, "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: safety = {safety} is too small at n = 2, epsilon = 1:")
    assert lines[0].endswith("raise --safety")
    assert not out.exists()


def test_dimn_passes_at_safety_1e_15():
    assert run_dimn(_fast_cfg(safety=1e-15)).overall_pass


def test_cli_parser_is_built_once_and_keeps_no_flags(tmp_path):
    # a second main in one process must report as a fresh process does
    assert cli._parser() is cli._parser()
    assert main(["dimn", "--epsilon", "1.9", "--out", str(tmp_path / "near.json")]) == 0
    assert main(["dimn", "--out", str(tmp_path / "plain.json")]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cechcert.cli", "dimn", "--out", str(tmp_path / "fresh.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
    assert (tmp_path / "near.json").read_bytes() != (tmp_path / "plain.json").read_bytes()


def test_cli_computation_error_exit(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise VerificationError("witness fails y . d = 0 != y . c mod 0")

    monkeypatch.setattr(cli, "run_dimn", fail)
    assert main(["dimn", "--out", str(tmp_path / "x.json")]) == 2
    assert "error: witness fails y . d = 0 != y . c mod 0" in capsys.readouterr().err


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
    def broken(cover):
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


@pytest.mark.parametrize("kmax", ["0", "-1", "5", "100000000"])
def test_cli_torus_table_refuses_a_kmax_outside_its_sets(kmax, tmp_path, capsys, monkeypatch):
    # n = 2 has 2^2 = 4 sets, so k_max runs from 1 to 4; any other value is
    # refused before a set is built
    monkeypatch.setattr(covers, "torus_cover", _reached)
    out = tmp_path / "ranks.json"
    t0 = time.monotonic()
    assert main(["cohomology-torus", "--n", "2", "--kmax", kmax, "--out", str(out)]) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err == f"error: k_max must be between 1 and 2^2 (the sets of the cover), got {kmax}; change --kmax\n"
    assert not out.exists()


def test_cli_torus_table_accepts_kmax_from_one_to_its_sets(tmp_path):
    out = tmp_path / "ranks.json"
    for kmax, ranks in (("1", [1]), ("4", [1, 2, 1, 0])):
        assert main(["cohomology-torus", "--n", "2", "--kmax", kmax, "--out", str(out)]) == 0
        assert [r["rank"] for r in json.loads(out.read_text())] == ranks


@pytest.mark.parametrize(
    "argv", [["--n", "13", "--kmax", "5000"], ["--n", "1000000"]], ids=["n13-kmax5000", "n1000000"]
)
def test_cli_torus_table_stops_counting_past_the_limit(argv, tmp_path, capsys):
    # 8,192 sets at n = 13: the count passes the limit at pairs and stops
    # there; the sum up to dimension 5000 would have about 2,400 digits
    out = tmp_path / "ranks.json"
    t0 = time.monotonic()
    assert main(["cohomology-torus", *argv, "--out", str(out)]) == 2
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: n = {argv[1]}: the sector nerve has more than 100,000 simplices up to dimension ")
    assert err.count("\n") == 1 and len(err) < 150 and not out.exists()


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
    code = main(["dim2"])
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


_NUMPY_PROBE = """
import json, sys
import cechcert.cli
from cechcert.scenarios import ScenarioConfig
ScenarioConfig(seed=1)
loaded = ["numpy" in sys.modules]
out = sys.argv[1]
for argv in (["dim2", "--out", out + "/dim2.json"], ["dimn", "--n", "3", "--out", out + "/dimn3.json"], ["selftest"]):
    if cechcert.cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""


def test_import_and_the_pipelines_load_no_numpy(tmp_path):
    # a fresh interpreter: the import, and then dim2, dimn --n 3 and
    # selftest in turn, each leave numpy unloaded
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False]


_STDLIB_PROBE = """
import json, sys
heavy = ("dataclasses", "inspect", "traceback")
import cechcert.cli
loaded = {"import": [m for m in heavy if m in sys.modules]}
from cechcert.scenarios import ScenarioConfig
ScenarioConfig(seed=1)
loaded["ScenarioConfig"] = [m for m in heavy if m in sys.modules]
out = sys.argv[1]
for argv in (
    ["selftest"],
    ["dim2", "--out", out + "/dim2.json"],
    ["dimn", "--n", "3", "--out", out + "/dimn3.json"],
    ["cohomology-torus", "--n", "2", "--out", out + "/torus2.json"],
    ["hessian-scan", "--out", out + "/hessian.csv"],
):
    if cechcert.cli.main(argv) != 0:
        sys.exit(f"{argv} failed")
    loaded[argv[0]] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_import_and_every_command_load_no_dataclasses_inspect_or_traceback(tmp_path):
    # a fresh interpreter: records are written by hand, and the CLI imports
    # traceback only to print a crash, so none of the three modules, with
    # the generated record methods a cost every start used to pay, loads on
    # the way to any verdict
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.splitlines()[-1])
    steps = ["import", "ScenarioConfig", "selftest", "dim2", "dimn", "cohomology-torus", "hessian-scan"]
    assert loaded == {step: [] for step in steps}


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
