"""The report encoder against its oracle, json.dumps(obj, sort_keys=True,
indent=2): the same bytes on drawn trees and on every report the suite
builds, and TypeError wherever json raises it."""

import ast
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cechcert
from cechcert.report import encode_json
from cechcert.scenarios import ScenarioConfig, run_dim2, run_dimn, torus_rank_table


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _outcome(encode, obj):
    try:
        return encode(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-7, 1e16, 5e-324, 1e22, 0.1]),
)
_INTS = st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([0, -1, 2**63, -(2**64) - 1]))
_TEXT = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "\U0001f600", "a\"b\\c\n\td"]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_INTS, children, max_size=4),
        st.dictionaries(_FLOATS, children, max_size=3),
        st.dictionaries(st.one_of(st.booleans(), st.none()), children, max_size=2),
    )


@settings(max_examples=250, deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=24))
@example({"a": [], "b": {}, "c": (), "d": [[], {}], "e": np.float64(0.1), "f": [np.float64("nan")]})
@example({"a": 1, 2: None})  # str and int keys do not sort together: TypeError
@example([])
@example({})
def test_encoder_writes_json_bytes(obj):
    assert _outcome(encode_json, obj) == _outcome(_oracle, obj)


@pytest.mark.parametrize(
    "obj",
    [{1, 2}, np.int64(3), np.bool_(True), [1, np.int64(2)], {"a": {"b": frozenset()}}, {(1, 2): 3}],
    ids=["set", "numpy-int64", "numpy-bool", "nested-int64", "nested-frozenset", "tuple-key"],
)
def test_encoder_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        _oracle(obj)
    with pytest.raises(TypeError):
        encode_json(obj)


@pytest.fixture(scope="module")
def reports():
    dim2 = {f"dim2-r{r}": run_dim2(ScenarioConfig(r=r)) for r in (4.0, 3.15)}
    dimn = {f"dimn-n{n}": run_dimn(ScenarioConfig(n=n)) for n in (2, 3, 8)}
    dimn["dimn-near-eps"] = run_dimn(ScenarioConfig(n=2, epsilon=1.9))
    dimn["dimn-eps-n"] = run_dimn(ScenarioConfig(n=2, epsilon=2.0))
    out = {name: rep.to_jsonable() for name, rep in {**dim2, **dimn}.items()}
    out.update({f"torus-n{n}": torus_rank_table(n) for n in (2, 3)})
    return out


def test_encoder_writes_every_report_as_json_does(reports):
    assert len(reports) == 9
    assert [c["name"] for c in reports["dimn-eps-n"]["checks"]][-1] == "definiteness-threshold"
    for name, obj in reports.items():
        assert encode_json(obj) == _oracle(obj), name


def test_no_json_call_under_src_passes_indent():
    # every JSON file the package writes goes through encode_json
    src = pathlib.Path(cechcert.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dump", "dumps")
        and any(kw.arg == "indent" for kw in node.keywords)
    ]
    assert calls == []
