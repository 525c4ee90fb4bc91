"""The benchmark's workloads and the verdict oracle.

Each workload is one `cechcert` command line, run through `cechcert.cli.main`
exactly as a user types it.  The oracle checks what the command wrote against
facts recorded here (ordered check names and statuses, binomial ranks), so it
imports nothing from the program under test.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional

# Ordered (check name, status) lists of the passing certificates.
DIMN_CHECKS = [
    ("tube-bounded", "pass"),
    ("levi-lower-bound", "pass"),
    ("contraction-identity", "pass"),
    ("hessian-pd-at-p", "pass"),
    ("negative-control-eps-n", "pass"),
    ("up-ball", "pass"),
    ("tube-not-convex", "pass"),
    ("connectivity", "pass"),
    ("clutching-bundle", "pass"),
    ("overlap-containment-and-glue", "pass"),
    ("glued-class-obstruction", "pass"),
    ("ball-bundle-triviality", "trusted"),
    ("stein-complement", "trusted"),
]
# selftest runs dimn without the connectivity scan, which it reports as trusted
DIMN_NO_SCAN_CHECKS = [
    (name, "trusted" if name == "connectivity" else status) for name, status in DIMN_CHECKS
]
DIM2_CHECKS = [
    ("overlap-two-components", "pass"),
    ("h1-rank-and-generator", "pass"),
    ("flat-obstruction", "pass"),
    ("periodicity", "pass"),
    ("tube-transport", "pass"),
    ("torus-inside-tube", "pass"),
    ("long-exact-sequence", "trusted"),
    ("restriction-bijectivity", "trusted"),
    ("slab-triviality", "trusted"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, str], list[str]]  # (seed, report path) -> cli arguments
    writes_report: bool  # False: the verdict is read from standard output
    check: Callable[[str, int], list[str]]  # (report text, seed) -> problems
    # call seconds -> verdict_s: the median for calls of seconds, the fastest
    # call for calls short enough to fall between bursts of host interference
    summary: Callable[[list[float]], float] = statistics.median


def check_report(text: str, seed: int, scenario: str, n: int, checks) -> list[str]:
    """Problems with a JSON certificate report; empty when it passes."""
    rep = json.loads(text)
    problems = []
    if rep.get("scenario") != scenario:
        problems.append(f"scenario {rep.get('scenario')!r}, expected {scenario!r}")
    config = rep.get("config", {})
    if config.get("n") != n or config.get("seed") != seed:
        problems.append(f"config n={config.get('n')} seed={config.get('seed')}, expected n={n} seed={seed}")
    if rep.get("overall") != "pass":
        problems.append(f"overall {rep.get('overall')!r}")
    got = [(c.get("name"), c.get("status")) for c in rep.get("checks", [])]
    if got != checks:
        problems.append(f"checks {got}, expected {checks}")
    return problems


def check_ranks(rows, n: int) -> list[str]:
    """Problems with a rank table of the sector cover of the n-torus tube:
    degrees 0..n have free rank C(n, k) and no torsion (Kuenneth)."""
    problems = []
    if [row.get("k") for row in rows] != list(range(n + 1)):
        problems.append(f"degrees {[row.get('k') for row in rows]}, expected 0..{n}")
    for row in rows:
        k = row.get("k")
        if isinstance(k, int) and 0 <= k <= n and row.get("rank") != math.comb(n, k):
            problems.append(f"H^{k} rank {row.get('rank')}, expected {math.comb(n, k)}")
        if row.get("torsion"):
            problems.append(f"H^{k} torsion {row.get('torsion')}")
    return problems


def parse_text_reports(text: str) -> dict[str, tuple[str, list[tuple[str, str]]]]:
    """Scenario -> (overall, ordered checks) from the CLI's text report format."""
    out: dict[str, tuple[str, list[tuple[str, str]]]] = {}
    scenario: Optional[str] = None
    for line in text.splitlines():
        if line.startswith("scenario:"):
            scenario = line.split(":", 1)[1].strip()
            out[scenario] = ("", [])
        elif line.startswith("overall:") and scenario is not None:
            out[scenario] = (line.split(":", 1)[1].strip().lower(), out[scenario][1])
        elif line.startswith("  ") and scenario is not None:
            fields = line.split()
            out[scenario][1].append((fields[0], fields[1].lower()))
        elif line and not line.startswith(" "):
            scenario = None
    return out


def check_selftest(text: str, seed: int) -> list[str]:
    problems = []
    reports = parse_text_reports(text)
    for scenario, checks in (("dim2", DIM2_CHECKS), ("dimn", DIMN_NO_SCAN_CHECKS)):
        overall, got = reports.get(scenario, ("missing", []))
        if overall != "pass":
            problems.append(f"{scenario} overall {overall!r}")
        if got != checks:
            problems.append(f"{scenario} checks {got}, expected {checks}")
    ranks = [line for line in text.splitlines() if line.startswith("torus ranks:")]
    want = [math.comb(2, k) for k in range(3)]
    if len(ranks) != 1 or json.loads(ranks[0].split(":", 1)[1]) != want:
        problems.append(f"torus rank line {ranks}, expected {want}")
    if "selftest: PASS" not in text.splitlines():
        problems.append("no 'selftest: PASS' line")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tube-n2-scan",
            lambda seed, out: ["dimn", "--n", "2", "--seed", str(seed), "--out", out],
            True,
            lambda text, seed: check_report(text, seed, "dimn", 2, DIMN_CHECKS),
        ),
        Workload(
            "torus-ranks-n3",
            lambda seed, out: ["cohomology-torus", "--n", "3", "--seed", str(seed), "--out", out],
            True,
            lambda text, seed: check_ranks(json.loads(text), 3),
        ),
        Workload(
            "tube-n3",
            lambda seed, out: ["dimn", "--n", "3", "--seed", str(seed), "--out", out],
            True,
            lambda text, seed: check_report(text, seed, "dimn", 3, DIMN_CHECKS),
        ),
        Workload(
            "selftest-loop",
            lambda seed, out: ["selftest", "--seed", str(seed)],
            False,
            check_selftest,
            min,
        ),
    )
}
