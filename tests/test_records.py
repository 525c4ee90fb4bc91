"""Record semantics: the immutable tree nodes and points, and the mutable
records, each constructed by its field names with the defaults and checks it
has always had."""

import copy
import math
import pickle

import numpy as np
import pytest

from cechcert.bundles import BundleData, BundleIso, CocycleReport, FlatClassResult
from cechcert.covers import SectorPatch, g_eps_region, lnt_bundle, torus_cover, torus_resolution
from cechcert.errors import DomainError, ShapeError
from cechcert.geometry import (
    CAnd,
    CLt,
    COr,
    ConvexityVerdict,
    CPoint,
    Frozen,
    GridLabeling,
    Region,
    SAbsZ,
    SConst,
    SLogAbsZ,
    SNormSq,
    SPow,
    SProd,
    SRho,
    SSum,
    SX,
    SY,
)
from cechcert.hexpr import ChartMap, Const, Coord, Exp, IntPower, MatExpr, Product, Sum
from cechcert.nerve import (
    AnalyticPatch,
    CoboundaryVerdict,
    CohomologyResult,
    Cover,
    IntCochain,
    Resolution,
    build_nerve,
)
from cechcert.report import CertificateReport, CheckResult
from cechcert.scenarios import ScenarioConfig
from cechcert.snf import SNFResult

_LEAF = SY(1)
# one node of every immutable type, each by its field names
NODES = [
    CPoint(xy=(1.0, 2.0)),
    SConst(value=1.5),
    SX(j=0),
    SY(j=1),
    SAbsZ(j=0),
    SLogAbsZ(j=1),
    SRho(),
    SNormSq(),
    SSum(terms=(_LEAF, SConst(2.0))),
    SProd(factors=(SConst(-1.0), _LEAF)),
    SPow(base=_LEAF, k=2),
    CLt(lhs=_LEAF, rhs=SConst(0.0)),
    CAnd(items=(CLt(_LEAF, SConst(1.0)),)),
    COr(items=(CLt(_LEAF, SConst(1.0)),)),
    Const(value=2j),
    Coord(j=1),
    IntPower(base=Coord(0), k=-2),
    Product(factors=(Const(1j), Coord(0))),
    Sum(terms=(Const(1), Coord(1))),
    Exp(arg=Coord(0)),
    MatExpr(entries=((Coord(0),),)),
    CohomologyResult(free_rank=1, torsion=(2,)),
]


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_a_node_is_an_immutable_value(node):
    twin = copy.deepcopy(node)
    assert twin is not node and twin == node and not twin != node
    assert hash(twin) == hash(node) == hash(node.fields())
    assert {node, twin} == {node} and pickle.loads(pickle.dumps(node)) == node
    assert node.fields() == tuple(getattr(node, name) for name in node.__slots__)
    assert eval(repr(node)) == node
    for name in node.__slots__ or ("j",):
        with pytest.raises(AttributeError):
            setattr(node, name, 0)
        with pytest.raises(AttributeError):
            delattr(node, name)
    with pytest.raises(AttributeError):
        node.extra = 0
    assert twin == node  # nothing above changed either


def test_nodes_of_different_types_with_equal_fields_are_unequal():
    terms = (SConst(1.0), SY(0))
    pairs = [
        (SX(0), SY(0)),
        (SAbsZ(0), SLogAbsZ(0)),
        (SRho(), SNormSq()),
        (SSum(terms), SProd(terms)),
        (CAnd((CLt(*terms),)), COr((CLt(*terms),))),
        (Const(1), Coord(1)),
        (Product((Coord(0),)), Sum((Coord(0),))),
        (SConst(1.0), Const(1.0)),
    ]
    for a, b in pairs:
        assert a != b and b != a and not a == b
        assert a.fields() == b.fields() and hash(a) == hash(b)  # only the type tells them apart
        assert len({a, b}) == 2
    assert SX(0) != SX(1) and SX(0) != 0 and SX(0) != (0,)
    assert Frozen.__eq__(SX(0), SY(0)) is NotImplemented


def test_equal_trees_hash_equal():
    # the same trees built twice, from no shared object
    for build in (lambda: g_eps_region(3, 1.5).constraint, lambda: torus_cover(3, 1.5).sets[5][1].constraint):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    cover = torus_cover(2, 1.0)
    nerve = build_nerve(cover, 3, torus_resolution(2, 1.0, 3))
    matrices = [m for t in lnt_bundle(cover, nerve).transitions.values() for m in t.values()]
    for m in matrices:
        assert copy.deepcopy(m) == m and hash(copy.deepcopy(m)) == hash(m)
    # fields compare as tuples do: a NaN equals only itself
    assert SConst(float("nan")) != SConst(float("nan"))
    nan = SConst(float("nan"))
    assert nan == nan and CLt(nan, nan) == CLt(nan, nan)


def test_node_checks_still_raise():
    for bad in [(1.0,), (1.0, 2.0, 3.0), (), (math.inf, 0.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match="CPoint"):
            CPoint(bad)
    for entries in [(), ((Const(1), Const(0)),), ((Const(1),), (Const(0),))]:
        with pytest.raises(ShapeError, match="square and nonempty"):
            MatExpr(entries)
    with pytest.raises(DomainError, match="negative power of the zero constant"):
        IntPower(Const(0), -1)
    assert IntPower(Const(0), 2).k == 2 and IntPower(Const(2), -1).k == -1


def test_record_checks_still_raise():
    with pytest.raises(ValueError, match="unknown status 'ok'"):
        CheckResult("x", "ok")
    for kwargs, message in [
        ({"epsilon": math.nan}, "epsilon must be finite"),
        ({"r": math.inf}, "r must be finite"),
        ({"safety": -math.inf}, "safety must be finite"),
        ({"r": 0.0}, "r must be positive"),
        ({"r": -1.0}, "r must be positive"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**kwargs)
    g = g_eps_region(2, 1.0)
    with pytest.raises(ValueError, match="cover set names must be unique"):
        Cover(g, [("A", g), ("A", g)])
    with pytest.raises(ValueError, match="ring must be"):
        IntCochain(1, "Q")


def test_every_mutable_record_keeps_its_fields_and_defaults():
    g = g_eps_region(2, 1.0)
    cover = Cover(ambient=g, sets=[("A", g)])
    patch = AnalyticPatch([CPoint((1.0, 0.0, 1.0, 0.0))], lambda p: 0)
    nerve = build_nerve(cover, 1, Resolution(patches={(0,): patch}))
    locate, values, metrics, arr = (lambda p: 0), {((0,), 0): 3}, {"m": 1}, np.zeros((1, 1))
    cochain = IntCochain(degree=0, ring="Z", values=values)
    verdict = CoboundaryVerdict(primitive=cochain, witness=None, modulus=2)
    checks = [CheckResult(name="a", status="pass", metrics=metrics, note="n")]
    records = [
        (Region(name="g", constraint=g.constraint, bbox=g.bbox), {"name": "g", "constraint": g.constraint}),
        (GridLabeling(step=0.5, origin=arr, shape=(1, 1), mask=arr, labels=arr, n_components=0, representatives=[]),
         {"step": 0.5, "origin": arr, "shape": (1, 1), "mask": arr, "labels": arr, "n_components": 0}),
        (ConvexityVerdict(trials=3, witness=None), {"trials": 3, "witness": None}),
        (ChartMap(name="c", forward=(Coord(0),), domain=g), {"name": "c", "domain": g}),
        (cover, {"ambient": g}),
        (AnalyticPatch(reps=[], locate=locate), {"locate": locate}),
        (SectorPatch(reps=[], locate=locate, diff=(1,)), {"locate": locate, "diff": (1,)}),
        (Resolution(patches=values), {"patches": values}),
        (cochain, {"degree": 0, "ring": "Z", "values": values}),
        (verdict, {"primitive": cochain, "witness": None, "modulus": 2}),
        (BundleData(cover=cover, nerve=nerve, rank=1, transitions={}), {"cover": cover, "nerve": nerve, "rank": 1}),
        (CocycleReport(max_residual=0.0, worst_location="", points_checked=4, det_floor_ok=True, tol=1e-9),
         {"max_residual": 0.0, "points_checked": 4, "det_floor_ok": True}),
        (BundleIso(h=values), {"h": values}),
        (FlatClassResult(trivializable=False, signs=None, verdict=verdict), {"signs": None, "verdict": verdict}),
        (checks[0], {"name": "a", "status": "pass", "metrics": metrics, "note": "n"}),
        (CertificateReport(scenario="s", config=metrics, checks=checks, artifacts=values),
         {"config": metrics, "checks": checks, "artifacts": values}),
        (ScenarioConfig(n=3, epsilon=1.0, r=5.0, seed=7, safety=0.25, run_connectivity=False),
         {"n": 3, "epsilon": 1.0, "r": 5.0, "seed": 7, "safety": 0.25, "run_connectivity": False}),
        (SNFResult(U=arr, V=arr, divisors=(1,)), {"U": arr, "V": arr, "divisors": (1,)}),
    ]
    for record, fields in records:
        for name, value in fields.items():
            got = getattr(record, name)
            assert got is value or (type(got) is type(value) and got == value), (type(record).__name__, name)
    cfg = ScenarioConfig()
    cfg.run_connectivity = False  # selftest's setting; records other than nodes take assignment
    assert not cfg.run_connectivity
    # the defaults, a fresh container per record
    assert Resolution().patches == {} and Resolution().patches is not Resolution().patches
    assert IntCochain(1, "Z").values == {} and IntCochain(1, "Z2", {(0,): 3}).values == {(0,): 1}
    assert vars(ScenarioConfig()) == {
        "n": 2, "epsilon": None, "r": 4.0, "seed": 0, "safety": 0.5, "run_connectivity": True
    }
    a, b = CheckResult("a", "trusted"), CheckResult("a", "trusted")
    assert a.metrics == {} and a.note == "" and a.metrics is not b.metrics
    a, b = CertificateReport("s", {}), CertificateReport("s", {})
    assert a.checks == [] and a.artifacts == {} and a.checks is not b.checks and a.artifacts is not b.artifacts
    empty = {}  # a container passed in is kept, even an empty one
    assert CheckResult("a", "pass", empty).metrics is empty and Resolution(empty).patches is empty
    assert IntCochain(0, "Z", empty).values is empty and CertificateReport("s", {}, [], empty).artifacts is empty
    assert SectorPatch([], locate).diff == () and ConvexityVerdict(1).witness is None
    assert CoboundaryVerdict(None).witness is None and CoboundaryVerdict(None).modulus == 0
    assert CocycleReport(0.5, "e", 2, True, 1.0).to_jsonable() == {
        "max_residual": 0.5, "worst_location": "e", "points_checked": 2, "det_floor_ok": True, "tol": 1.0,
        "passed": True,
    }
    assert Region("b", SRho(), [(0, 1), (2, 3)]).bbox == ((0.0, 1.0), (2.0, 3.0))
