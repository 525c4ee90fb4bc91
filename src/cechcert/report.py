"""Certificate reports: ordered named checks with machine-readable payloads.

A check is either machine-verified (pass/fail) or an analytic fact the
pipeline relies on but does not re-prove (status "trusted").  The overall
verdict is pass iff every non-trusted check passes.  JSON output is
schema-versioned and byte-stable for fixed inputs: `encode_json` writes the
bytes of json.dumps(obj, sort_keys=True, indent=2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
TRUSTED = "trusted"


@dataclass
class CheckResult:
    name: str
    status: str
    metrics: dict = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, TRUSTED):
            raise ValueError(f"unknown status {self.status!r}")

    def to_jsonable(self):
        return {
            "name": self.name,
            "status": self.status,
            "metrics": self.metrics,
            "note": self.note,
        }


@dataclass
class CertificateReport:
    scenario: str
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, metrics: Optional[dict] = None, note: str = "") -> CheckResult:
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        c = CheckResult(name, PASS if ok else FAIL, metrics or {}, note)
        self.checks.append(c)
        return c

    def add_trusted(self, name: str, note: str, metrics: Optional[dict] = None) -> CheckResult:
        if any(c.name == name for c in self.checks):
            raise ValueError(f"duplicate check name {name!r}")
        c = CheckResult(name, TRUSTED, metrics or {}, note)
        self.checks.append(c)
        return c

    @property
    def overall_pass(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def to_jsonable(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "config": self.config,
            "overall": PASS if self.overall_pass else FAIL,
            "checks": [c.to_jsonable() for c in self.checks],
            "artifacts": self.artifacts,
        }

    def to_json(self) -> str:
        return encode_json(self.to_jsonable()) + "\n"

    def to_text(self) -> str:
        lines = [
            f"scenario: {self.scenario}",
            f"overall:  {'PASS' if self.overall_pass else 'FAIL'}",
            "",
        ]
        width = max((len(c.name) for c in self.checks), default=4)
        for c in self.checks:
            lines.append(f"  {c.name.ljust(width)}  {c.status.upper():8s}  {c.note}".rstrip())
        return "\n".join(lines) + "\n"


_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _put(o, nl: str, out: list) -> None:
    """Append the pieces of `o` at the indent `nl` ("\\n" and two spaces a level)."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep, at = "," + inner, len(out)
        for v in o:
            out.append(sep)
            _put(v, inner, out)
        out[at] = "[" + out[at][1:]  # the first separator's comma opens the list
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep, at = "," + inner, len(out)
        for k, v in sorted(o.items()):
            if isinstance(k, str):
                pass
            elif isinstance(k, float):
                k = _float(k)
            elif k is True:
                k = "true"
            elif k is False:
                k = "false"
            elif k is None:
                k = "null"
            elif isinstance(k, int):
                k = int.__repr__(k)
            else:
                raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
            out.append(sep + _quote(k) + ": ")
            _put(v, inner, out)
        out[at] = "{" + out[at][1:]  # and the dict
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def encode_json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte.

    It tests types in json's order (str, None, True, False, int, float,
    list or tuple, dict), writes strings and keys with json's own ASCII
    escaper, floats with float.__repr__ (NaN and +-Infinity as json does),
    and sorts each dict's items before it turns int, float, bool and None
    keys into strings.  It raises TypeError where json does.  With an
    indent, json falls back to its pure-Python generators, more than twice
    as slow as this one list of pieces joined once.  A report is a tree, so
    there is no check for cycles: a cyclic object ends in RecursionError
    (json raises ValueError).
    """
    out: list[str] = []
    _put(obj, "\n", out)
    return "".join(out)


def emit_report(rep: CertificateReport, path: str, fmt: str = "json") -> None:
    """Write the report; JSON output is byte-identical for identical inputs."""
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    payload = rep.to_json() if fmt == "json" else rep.to_text()
    with open(path, "w") as fh:
        fh.write(payload)
