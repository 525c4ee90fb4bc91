"""Command-line front end.

Exit codes: 0 when every machine check passes, 1 when a check fails, 2 for
configuration or resource errors, for computations that cannot finish or
fail their own exact re-check, and for any other exception (a crash, reported
with its traceback).  Reports go to --out, or into the directory
named by the CECHCERT_OUT environment variable (default: current directory).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import DomainError, ResolutionError, ResourceError, VerificationError
from .report import emit_report, encode_json
from .scenarios import (
    DIM2_FIELDS, DIMN_FIELDS, ScenarioConfig, hessian_scan_rows, run_dim2, run_dimn, torus_rank_table
)

OUT_ENV = "CECHCERT_OUT"


# The types of the ScenarioConfig fields a command takes as flags; a flag not
# given leaves the field at its ScenarioConfig default.  run_connectivity has
# no flag: a pipeline command checks connectivity, selftest does not.  seed
# changes nothing (no command samples); dimn's report echoes it.
_FLAG_TYPES = {"n": int, "epsilon": float, "r": float, "seed": int, "safety": float}
# selftest runs both pipelines at n = 2
_SELFTEST_FIELDS = tuple(dict.fromkeys(f for f in DIM2_FIELDS + DIMN_FIELDS if f != "n"))


def _scenario_flags(p: argparse.ArgumentParser, fields: tuple) -> None:
    for name in fields:
        if name in _FLAG_TYPES:
            p.add_argument("--" + name.replace("_", "-"), type=_FLAG_TYPES[name], default=argparse.SUPPRESS)


def _report_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")


def _config(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(**{k: v for k, v in vars(args).items() if k in _FLAG_TYPES})


def _out_path(args: argparse.Namespace, default_name: str) -> str:
    if args.out:
        return args.out
    return os.path.join(os.environ.get(OUT_ENV, "."), default_name)


def _finish(rep, args, default_name: str) -> int:
    path = _out_path(args, default_name)
    emit_report(rep, path, args.format)
    print(rep.to_text(), end="")
    print(f"report written to {path}")
    return 0 if rep.overall_pass else 1


def _table_ok(rows) -> bool:
    """A rank table passes with the Kuenneth ranks and no torsion in any degree."""
    return all(row["rank"] == row["expected"] and not row["torsion"] for row in rows)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call (not at import, so
    that importing the CLI stays cheap) and reused by every later `main`."""
    parser = argparse.ArgumentParser(
        prog="cechcert",
        description="Certificates for line bundles over explicit covers: "
        "cohomology of resolved nerves, gluing, and non-extension obstructions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p2 = sub.add_parser("dim2", help="slab construction certificate")
    _scenario_flags(p2, DIM2_FIELDS)
    _report_flags(p2)

    pn = sub.add_parser("dimn", help="tube construction certificate")
    _scenario_flags(pn, DIMN_FIELDS)
    _report_flags(pn)

    pt = sub.add_parser("cohomology-torus", help="rank table of the sector cover")
    pt.add_argument("--n", type=int, default=2)
    pt.add_argument("--epsilon", type=float, default=None)
    pt.add_argument("--kmax", type=int, default=None)
    pt.add_argument("--seed", type=int, default=0)  # accepted and unused: the table is exact
    pt.add_argument("--out", type=str, default=None)

    ph = sub.add_parser("hessian-scan", help="CSV sweep of the Hessian block forms")
    ph.add_argument("--lo", type=float, default=0.5)
    ph.add_argument("--hi", type=float, default=3.5)
    ph.add_argument("--count", type=int, default=1000)
    ph.add_argument("--out", type=str, default=None)

    ps = sub.add_parser("selftest", help="fast end-to-end smoke run")
    _scenario_flags(ps, _SELFTEST_FIELDS)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.cmd == "dim2":
            return _finish(run_dim2(_config(args)), args, "dim2_report.json")
        if args.cmd == "dimn":
            return _finish(run_dimn(_config(args)), args, "dimn_report.json")
        if args.cmd == "cohomology-torus":
            rows = torus_rank_table(args.n, args.epsilon, args.kmax)
            path = _out_path(args, f"torus_ranks_n{args.n}.json")
            with open(path, "w") as fh:
                fh.write(encode_json(rows) + "\n")
            ok = _table_ok(rows)
            for row in rows:
                print(f"H^{row['k']}: rank {row['rank']} (expected {row['expected']})")
            print(f"table written to {path}")
            return 0 if ok else 1
        if args.cmd == "hessian-scan":
            import csv  # here, not at module load: no other command writes CSV
            rows = hessian_scan_rows(args.lo, args.hi, args.count)
            path = _out_path(args, "hessian_scan.csv")
            with open(path, "w", newline="") as fh:
                w = csv.DictWriter(fh, fieldnames=["modulus", "trace", "det", "definite"])
                w.writeheader()
                w.writerows(rows)
            print(f"scan written to {path}")
            return 0
        if args.cmd == "selftest":
            cfg = _config(args)
            cfg.run_connectivity = False
            rep2 = run_dim2(cfg)
            repn = run_dimn(cfg)
            rows = torus_rank_table(2)
            ok = (
                rep2.overall_pass
                and repn.overall_pass
                and _table_ok(rows)
            )
            print(rep2.to_text(), end="")
            print(repn.to_text(), end="")
            print("torus ranks:", [row["rank"] for row in rows])
            print("selftest:", "PASS" if ok else "FAIL")
            return 0 if ok else 1
        parser.error(f"unknown command {args.cmd!r}")
    except (
        DomainError,
        ResourceError,
        ResolutionError,
        VerificationError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # here, not at module load: only a crash prints one
        traceback.print_exc()
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
