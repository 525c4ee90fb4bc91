"""Tests of the benchmark's own code: oracle, span arithmetic, wrappers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from spans import ROOT_SPAN, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DIM2_CHECKS, DIMN_CHECKS, DIMN_NO_SCAN_CHECKS, check_ranks, check_report, check_selftest  # noqa: E402


def dimn_report(seed=4, checks=DIMN_CHECKS, overall="pass"):
    return json.dumps(
        {
            "scenario": "dimn",
            "config": {"n": 3, "seed": seed},
            "overall": overall,
            "checks": [{"name": name, "status": status} for name, status in checks],
        }
    )


def selftest_text(dimn_checks=DIMN_NO_SCAN_CHECKS, ranks="[1, 2, 1]"):
    lines = []
    for scenario, checks in (("dim2", DIM2_CHECKS), ("dimn", dimn_checks)):
        overall = "FAIL" if any(s == "fail" for _, s in checks) else "PASS"
        lines += [f"scenario: {scenario}", f"overall:  {overall}", ""]
        lines += [f"  {name}  {status.upper():8s}  a note" for name, status in checks]
    lines += [f"torus ranks: {ranks}", "selftest: PASS"]
    return "\n".join(lines) + "\n"


def test_oracle_accepts_passing_certificates():
    assert check_report(dimn_report(), 4, "dimn", 3, DIMN_CHECKS) == []
    assert check_selftest(selftest_text(), 0) == []
    rows = [{"k": k, "rank": r, "torsion": []} for k, r in enumerate([1, 3, 3, 1])]
    assert check_ranks(rows, 3) == []


def test_oracle_flags_a_failed_check():
    failed = [(n, "fail" if n == "clutching-bundle" else s) for n, s in DIMN_CHECKS]
    assert check_report(dimn_report(checks=failed, overall="fail"), 4, "dimn", 3, DIMN_CHECKS)
    # a failed check flags the report even if its overall field says pass
    assert check_report(dimn_report(checks=failed), 4, "dimn", 3, DIMN_CHECKS)
    assert check_report(dimn_report(checks=DIMN_CHECKS[:-1]), 4, "dimn", 3, DIMN_CHECKS)
    assert check_report(dimn_report(seed=5), 4, "dimn", 3, DIMN_CHECKS)
    assert check_selftest(selftest_text(dimn_checks=failed), 0)


def test_oracle_flags_a_wrong_rank():
    rows = [{"k": k, "rank": r, "torsion": []} for k, r in enumerate([1, 3, 2, 1])]
    assert check_ranks(rows, 3) == ["H^2 rank 2, expected 3"]
    rows[2] = {"k": 2, "rank": 3, "torsion": [2]}
    assert check_ranks(rows, 3) == ["H^2 torsion [2]"]
    assert check_ranks(rows[:3], 3)
    assert check_selftest(selftest_text(ranks="[1, 1, 1]"), 0)


def test_judge_counts_each_failed_call_once():
    report = dimn_report(seed=4)
    good = hashlib.sha256(report.encode()).hexdigest()
    calls = [
        {"rc": 0, "error": None, "sha256": good},
        {"rc": 0, "error": None, "sha256": "0" * 64},
        {"rc": 1, "error": None, "sha256": good},
        {"rc": None, "error": "RuntimeError: boom", "sha256": good},
        {"rc": 0, "error": None, "sha256": good},
    ]
    failed, problems = run.judge("tube-n3", 4, {"calls": calls}, report)
    assert failed == 3 and len(problems) == 3
    failed, _ = run.judge("tube-n3", 4, {"calls": calls[:1]}, "not json")
    assert failed == 1


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
        ["c", 7.0, 9.5, 0],
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 1.0, 2.5])


def test_layer_metrics_count_recursion_once_and_split_the_verdict():
    spans = [
        [ROOT_SPAN, 0.0, 10.0, None],
        ["nerve.cohomology", 1.0, 5.0, 0],
        ["nerve.cohomology", 2.0, 3.0, 1],
        ["snf.smith_normal_form", 3.5, 4.5, 1],
        [ROOT_SPAN, 10.0, 12.0, None],
        ["geometry.grid_components", 10.5, 11.5, 4],
        ["geometry.Region.mask", 10.6, 11.0, 5],
    ]
    m = layer_metrics(spans, {})
    assert m["nerve.cohomology.s"] == pytest.approx(4.0 / 2)
    assert m["nerve.cohomology.self_s"] == pytest.approx(3.0 / 2)
    assert m["nerve.cohomology.calls"] == 1.0
    assert m["geometry.grid_components.mask_s"] == pytest.approx(0.4 / 2)
    assert m["geometry.grid_components.label_s"] == pytest.approx(0.6 / 2)
    assert m["scenarios.self_s"] == pytest.approx((12.0 - 4.0 - 1.0) / 2)
    assert m["scenarios.self_share"] == pytest.approx(7.0 / 12.0)
    from_run = {"trace.verdict_s", "trace.overhead_s", "process.cpu_s"}
    assert set(run.declared("per_layer")) - from_run <= set(m)


def test_wrapper_returns_results_and_exceptions_unchanged():
    tracer = Tracer()
    marker = object()
    assert tracer.wrap("x", lambda a, b=None: (a, b))(marker, b=2) == (marker, 2)

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap("y", boom)()
    assert [s[0] for s in tracer.spans] == ["x", "y"]
    assert all(s[2] is not None for s in tracer.spans)


def test_installed_tracer_leaves_cli_output_unchanged(tmp_path):
    from cechcert import cli, nerve, scenarios

    def run_cli(main, name):
        out = io.StringIO()
        path = tmp_path / name
        with redirect_stdout(out):
            rc = main(["cohomology-torus", "--n", "2", "--out", str(path)])
        return rc, out.getvalue().replace(str(path), "PATH"), path.read_bytes()

    plain = run_cli(cli.main, "plain.json")
    originals = (nerve.smith_normal_form, scenarios.grid_components, scenarios.cohomology)
    tracer = Tracer()
    tracer.install()
    try:
        assert nerve.smith_normal_form.__wrapped__ is originals[0]
        assert scenarios.grid_components.__wrapped__ is originals[1]
        traced = run_cli(tracer.wrap(ROOT_SPAN, cli.main), "traced.json")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (nerve.smith_normal_form, scenarios.grid_components, scenarios.cohomology) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == ROOT_SPAN and "nerve.cohomology" in names
    snf_parent = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "snf.smith_normal_form"}
    assert snf_parent == {"nerve.cohomology"}
