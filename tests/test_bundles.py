"""Transition data, cocycle validation, gluing, and characteristic cochains."""

import cmath
import itertools
import math
import re
import time

import numpy as np
import pytest

from cechcert.errors import ChartError, DomainError, GlueError, NotACocycleError, ShapeError
from cechcert.geometry import (
    CAnd,
    CLt,
    CPoint,
    Region,
    SConst,
    SPow,
    SRho,
    SSum,
    SX,
    SY,
    ball_region,
    conjuncts,
    reads_y_only,
)
from cechcert.hexpr import (
    ChartMap,
    Const,
    Coord,
    Exp,
    IntPower,
    MatExpr,
    Product,
    Sum,
    as_monomial,
)
from cechcert.nerve import (
    AnalyticPatch,
    Cover,
    IntCochain,
    Resolution,
    build_nerve,
    cohomology,
    is_coboundary,
)
from cechcert.bundles import (
    BundleData,
    BundleIso,
    _exp_image,
    _winding,
    chern_cocycle,
    exp_sequence_push,
    flat_class_test,
    glue,
    pullback,
    restrict_to_sets,
    trivial_bundle,
    validate_cocycle,
    validate_iso,
)
from cechcert.covers import (
    _torus_patch,
    dim2_cover,
    dim2_generator_cochain,
    dim2_resolution,
    exp_chart,
    glued_resolution,
    lnt_bundle,
    omega_prime_region,
    one_set_cover,
    outer_rep,
    sector_letters,
    torus_cover,
    torus_resolution,
    tube_bundle_dim2,
    tube_cover_dim2,
    tube_resolution_dim2,
    up_ball,
)
from chart_samplers import escaping_sets


@pytest.fixture(scope="module")
def torus2():
    n, eps = 2, 1.0
    cover = torus_cover(n, eps)
    nerve = build_nerve(cover, 3, torus_resolution(n, eps, 3))
    return cover, nerve


@pytest.fixture(scope="module")
def tube2():
    cover = tube_cover_dim2(1.0)
    nerve = build_nerve(cover, 2, tube_resolution_dim2())
    return cover, nerve


def test_trivial_bundle_cocycle(torus2):
    cover, nerve = torus2
    b = trivial_bundle(cover, nerve)
    rep = validate_cocycle(b)
    assert rep.passed
    assert rep.max_residual == 0.0
    assert rep.points_checked == _triple_pairs(nerve)


def test_tube_bundle_validates(tube2):
    cover, nerve = tube2
    b = tube_bundle_dim2(cover, nerve)
    rep = validate_cocycle(b)
    assert rep.passed  # no triple overlaps, so only the determinant checks fire
    assert rep.points_checked == 0


def test_transition_table_must_match_the_overlap_components(tube2):
    cover, nerve = tube2  # the overlap (0, 1) has components 0 and 1
    one = MatExpr(((Const(1),),))
    with pytest.raises(ValueError, match=r"\(0, 1\) misses a component"):
        BundleData(cover, nerve, 1, {(0, 1): {0: one}})
    with pytest.raises(ValueError, match=r"\(0, 1\) names a component"):
        BundleData(cover, nerve, 1, {(0, 1): {0: one, 1: one, 2: one}})
    b = BundleData(cover, nerve, 1, {(0, 1): {0: one, None: MatExpr(((Const(-1),),))}})
    assert b.edge_matrix(0, 1, 1).entries[0][0] == Const(-1)
    assert validate_cocycle(b).passed


def _triple_pairs(nerve) -> int:
    return sum(len(nerve.components(t)) for t in nerve.simplices_of_dim(2))


def test_lnt_cocycle_many_points(torus2):
    cover, nerve = torus2
    b = lnt_bundle(cover, nerve)
    rep = validate_cocycle(b, tol=1e-9)
    assert rep.passed
    assert rep.points_checked == _triple_pairs(nerve) > 0
    assert rep.max_residual < 1e-9
    assert rep.max_residual == 0.0  # +-1 and z_2^{+-1} multiply exactly


def _first_triple_through(nerve, edge, comp):
    """The first (triple, component) the validator visits with the given edge
    component among its faces."""
    for tri in nerve.simplices_of_dim(2):
        for ci in range(len(nerve.components(tri))):
            for m in range(3):
                if tri[:m] + tri[m + 1 :] == edge and nerve.face_component(tri, ci, m) == comp:
                    return tri, ci
    raise AssertionError("the edge component lies in no triple")


_CHANGES = pytest.mark.parametrize(
    "change",
    [
        lambda e: IntPower(Coord(1), 2) if e == Coord(1) else e,  # one exponent
        lambda e: Const(-1) if e == Const(1) else Product((Const(-1), e)),  # one constant
    ],
    ids=["exponent", "constant"],
)


def _broken_lnt(cover, nerve, change):
    """The n = 2 clutching bundle with `change` applied to its first z_2
    transition; returns the bundle, that edge and its component."""
    b = lnt_bundle(cover, nerve)
    for edge in sorted(b.transitions):  # the first edge with a z_2 component
        lower = [ci for ci, m in b.transitions[edge].items() if m.entries[0][0] == Coord(1)]
        if lower:
            break
    ci = lower[0]
    table = {e: dict(bycomp) for e, bycomp in b.transitions.items()}
    table[edge][ci] = MatExpr(((change(table[edge][ci].entries[0][0]),),))
    return BundleData(cover, nerve, 1, table), edge, ci


@_CHANGES
def test_broken_lnt_transition_fails_at_its_triple(torus2, change):
    cover, nerve = torus2
    b, edge, ci = _broken_lnt(cover, nerve, change)
    rep = validate_cocycle(b)
    assert not rep.passed and rep.det_floor_ok
    assert rep.max_residual >= 1.0
    tri, tci = _first_triple_through(nerve, edge, ci)
    assert rep.worst_location == f"triple {tri} comp {tci}"


def test_exp_transition_is_refused(tube2):
    cover, nerve = tube2
    b = BundleData(cover, nerve, 1, {(0, 1): {None: MatExpr(((Exp(Coord(0)),),))}})
    with pytest.raises(ShapeError):
        validate_cocycle(b)


def _two_ball_bundle(x0: float, e) -> BundleData:
    """Two balls in C^2 centred at (x0 -+ 0.2, 0, 2, 0), so |x_2 - 2| < 0.45
    keeps z_2 away from 0 while z_1 = 0 lies in the overlap when x0 = 0, with
    the transition e on their overlap."""
    amb = ball_region((x0, 0.0, 2.0, 0.0), 1.2, name="ambient")
    a1 = ball_region((x0 - 0.2, 0.0, 2.0, 0.0), 0.45, name="A1")
    a2 = ball_region((x0 + 0.2, 0.0, 2.0, 0.0), 0.45, name="A2")
    res = Resolution(
        patches={
            (0,): _ball_patch((x0 - 0.2, 0.0, 2.0, 0.0)),
            (1,): _ball_patch((x0 + 0.2, 0.0, 2.0, 0.0)),
            (0, 1): _ball_patch((x0, 0.0, 2.0, 0.0)),
        }
    )
    cover = Cover(amb, [("A1", a1), ("A2", a2)])
    return BundleData(cover, build_nerve(cover, 1, res), 1, {(0, 1): {None: MatExpr(((e,),))}})


def test_inverse_coordinate_must_be_proved_nonzero():
    # z_1 = 0 lies in the overlap of the balls about x_1 = -+0.2
    rep = validate_cocycle(_two_ball_bundle(0.0, IntPower(Coord(0), -1)))
    assert not rep.det_floor_ok and not rep.passed
    assert rep.worst_location == "edge (0, 1) comp 0: z_1 is not proved nonzero on the overlap"
    # a positive power vanishes there too, so its determinant is no unit
    rep = validate_cocycle(_two_ball_bundle(0.0, Coord(0)))
    assert rep.worst_location == "edge (0, 1) comp 0: z_1 is not proved nonzero on the overlap"
    # every ball keeps |x_2 - 2| < 0.45, and moved to x_1 near 2 also x_1 != 0
    assert validate_cocycle(_two_ball_bundle(0.0, IntPower(Coord(1), -1))).passed
    assert validate_cocycle(_two_ball_bundle(2.0, IntPower(Coord(0), -1))).passed
    # a determinant with two terms is no unit, although z_2 + 10 never vanishes here
    rep = validate_cocycle(_two_ball_bundle(2.0, Sum((Coord(1), Const(10)))))
    assert rep.worst_location == "edge (0, 1) comp 0: determinant below floor"


def test_lnt_chern_generates_h2(torus2):
    cover, nerve = torus2
    b = lnt_bundle(cover, nerve)
    cc = chern_cocycle(b)
    assert not cc.is_zero()
    verdict = is_coboundary(nerve, cc)
    assert not verdict.yes
    assert cohomology(nerve, 2).free_rank == 1


def test_lnt_chern_has_no_primitive_at_n4_in_bounded_time():
    # d^1 of the n = 4 sector nerve is 5760 x 640, so the solve must stay sparse
    cover = torus_cover(4, 2.0)
    nerve = build_nerve(cover, 3, torus_resolution(4, 2.0, 3))
    chern = chern_cocycle(lnt_bundle(cover, nerve))
    start = time.perf_counter()
    verdict = is_coboundary(nerve, chern)
    assert time.perf_counter() - start < 30.0
    assert not verdict.yes and verdict.modulus == 0
    # a 2-cycle of the nerve on which the Chern class is +-1
    assert abs(sum(v * chern.get(*key) for key, v in verdict.witness.values.items())) == 1


def test_chern_of_constant_bundle(tube2):
    cover, nerve = tube2
    b = tube_bundle_dim2(cover, nerve)
    assert chern_cocycle(b).is_zero()  # two sets, no triple overlaps


def _rounded_log_sum(b: BundleData) -> dict:
    """Oracle for chern_cocycle: one log determination per (edge, component),
    its cut opposite the representative's argument in each coordinate, summed
    in floats at each triple representative and rounded to an integer."""

    def log_at(e, edge_rep: CPoint, z: CPoint) -> complex:
        c, exps = as_monomial(e)
        out = cmath.log(c)
        for j, k in exps.items():
            theta = cmath.phase(edge_rep.z(j))
            out += k * (cmath.log(z.z(j) * cmath.exp(-1j * theta)) + 1j * theta)
        return out

    values = {}
    for tri in b.nerve.simplices_of_dim(2):
        for ci, rep in enumerate(b.nerve.components(tri)):
            raw = 0j
            for m, sign in ((0, 1), (1, -1), (2, 1)):
                edge = tri[:m] + tri[m + 1 :]
                fc = b.nerve.face_component(tri, ci, m)
                e = b.edge_matrix(*edge, fc).entries[0][0]
                raw += sign * log_at(e, b.nerve.components(edge)[fc], rep)
            raw /= 2j * math.pi
            value = round(raw.real)
            assert abs(raw - value) < 1e-6
            if value:
                values[(tri, ci)] = value
    return values


@pytest.fixture(scope="module", params=[2, 3])
def clutching_and_glued(request):
    """The clutching bundle on the full 2^n-set sector cover and its gluing
    with the trivial bundle on Omega', glued at tol 0 (at n = 2 the cover is
    run_dimn's)."""
    n = request.param
    eps, safety = n / 2.0, 0.5
    cover = torus_cover(n, eps)
    lnt = lnt_bundle(cover, build_nerve(cover, 3, torus_resolution(n, eps, 3)))
    out_cover, out_res = one_set_cover(
        omega_prime_region(n, eps, up_ball(n, eps, safety)), outer_rep(n, eps)
    )
    triv = trivial_bundle(out_cover, build_nerve(out_cover, 1, out_res))
    iso = BundleIso({(0, 0): {None: MatExpr(((Const(1),),))}})
    glued, iso_rep, coc_rep = glue(
        lnt, triv, iso, glued_resolution(n, eps, safety, 3), k_max=3, tol=0.0
    )
    return lnt, glued, iso_rep, coc_rep


def test_chern_matches_the_rounded_log_sum(clutching_and_glued):
    lnt, glued, _, _ = clutching_and_glued
    for b in (lnt, glued):
        cc = chern_cocycle(b)
        assert not cc.is_zero()
        assert cc.values == _rounded_log_sum(b)


def test_exact_identities_pass_at_zero_tolerance(torus2, clutching_and_glued):
    lnt, _, iso_rep, coc_rep = clutching_and_glued
    assert validate_cocycle(lnt, tol=0.0).passed
    assert iso_rep.passed and coc_rep.passed
    assert iso_rep.max_residual == coc_rep.max_residual == 0.0
    broken, _, _ = _broken_lnt(*torus2, lambda e: Product((Const(-1), e)))
    assert not validate_cocycle(broken, tol=0.0).passed


@_CHANGES
def test_broken_lnt_transition_has_no_chern_cocycle(torus2, change):
    cover, nerve = torus2
    b, edge, ci = _broken_lnt(cover, nerve, change)
    tri, tci = _first_triple_through(nerve, edge, ci)
    with pytest.raises(NotACocycleError, match=re.escape(f"simplex {tri} component {tci}")):
        chern_cocycle(b)


def _three_balls():
    """Three balls about (0, 0, 2, 0), every representative of an overlap at
    that point, where z_1 = 0."""
    centers = [(-0.2, 0.0, 2.0, 0.0), (0.2, 0.0, 2.0, 0.0), (0.0, 0.2, 2.0, 0.0)]
    balls = [(f"A{i}", ball_region(c, 0.45, name=f"A{i}")) for i, c in enumerate(centers)]
    origin = (0.0, 0.0, 2.0, 0.0)
    patches = {(i,): _ball_patch(c) for i, c in enumerate(centers)}
    patches.update({s: _ball_patch(origin) for s in ((0, 1), (0, 2), (1, 2), (0, 1, 2))})
    cover = Cover(ball_region(origin, 1.2, name="ambient"), balls)
    return cover, build_nerve(cover, 2, Resolution(patches=patches))


@pytest.mark.parametrize(
    "f01, f12, f02, value",
    [(-1, -1, 1, 1), (1j, 1j, -1, 0), (-1j, -1j, -1, -1), (-1, 1, -1, 0)],
)
def test_chern_of_constants_corrects_the_argument_sum(f01, f12, f02, value):
    # Arg c_jk + Arg c_ij above pi, at pi, and at -pi, against the oracle
    cover, nerve = _three_balls()
    edges = {(0, 1): f01, (1, 2): f12, (0, 2): f02}
    b = BundleData(cover, nerve, 1, {e: {None: MatExpr(((Const(c),),))} for e, c in edges.items()})
    want = {((0, 1, 2), 0): value} if value else {}
    assert chern_cocycle(b).values == _rounded_log_sum(b) == want


def test_chern_refuses_a_zero_coordinate_at_a_representative():
    # the triple representative has z_1 = 0, where no branch of log z_1 exists
    cover, nerve = _three_balls()
    z1 = {None: MatExpr(((Coord(0),),))}
    b = BundleData(cover, nerve, 1, {(0, 1): z1, (0, 2): z1})
    with pytest.raises(DomainError, match="no branch of log z"):
        chern_cocycle(b)
    zero = BundleData(cover, nerve, 1, {(0, 1): {None: MatExpr(((Const(0),),))}})
    with pytest.raises(ShapeError, match="is zero"):
        chern_cocycle(zero)


def test_winding_places_the_argument_within_pi_of_the_representative():
    assert _winding(1j, 1) == 0
    assert _winding(-1 - 0.1j, -1 + 0.1j) == 1  # arg crosses the principal cut upwards
    assert _winding(-1 + 0.1j, -1 - 0.1j) == -1
    for z, u in ((-1, 1), (0, 1), (1, 0)):  # on the cut opposite u, or a zero
        with pytest.raises(DomainError):
            _winding(z, u)


def test_chern_rejects_higher_rank(torus2):
    cover, nerve = torus2
    with pytest.raises(ShapeError):
        chern_cocycle(trivial_bundle(cover, nerve, rank=2))


def test_exp_sequence_push_half_and_full():
    nerve = build_nerve(dim2_cover(4.0), 2, dim2_resolution())
    gen = dim2_generator_cochain()
    half = exp_sequence_push(nerve, gen, scale="half")
    assert half.edge_matrix(0, 1, 0).entries[0][0] == Const(1)
    assert half.edge_matrix(0, 1, 1).entries[0][0] == Const(-1)
    assert not flat_class_test(half).trivializable
    full = exp_sequence_push(nerve, gen, scale="full")
    assert full.transitions == {}
    assert flat_class_test(full).trivializable


def test_exp_sequence_push_rejects_non_cocycle(torus2):
    cover, nerve = torus2
    basis = nerve.basis(1)
    c = IntCochain(1, "Z", {basis[0]: 1})
    with pytest.raises(NotACocycleError):
        exp_sequence_push(nerve, c)


def test_flat_class_examples(tube2):
    cover, nerve = tube2
    obstructed = tube_bundle_dim2(cover, nerve)
    res = flat_class_test(obstructed)
    assert not res.trivializable and res.signs is None

    both_minus = BundleData(
        cover, nerve, 1, {(0, 1): {None: MatExpr(((Const(-1),),))}}
    )
    res2 = flat_class_test(both_minus)
    assert res2.trivializable
    s = res2.signs
    for ci in range(2):
        assert s[(1, 0)] * s[(0, 0)] == -1  # f(2<-1) = s_2 / s_1 = -1

    res3 = flat_class_test(trivial_bundle(cover, nerve))
    assert res3.trivializable
    assert set(res3.signs.values()) <= {1, -1}


def test_flat_class_rejects_non_constant(torus2):
    cover, nerve = torus2
    with pytest.raises(ShapeError):
        flat_class_test(lnt_bundle(cover, nerve))


def test_restrict_to_sets_is_verbatim(torus2):
    cover, nerve = torus2
    b = lnt_bundle(cover, nerve)
    keep = [0, 1, 2, 3]
    rb = restrict_to_sets(b, keep)
    assert rb.transitions == b.transitions
    assert rb.cover.names == cover.names


def test_pullback_tube_bundle_through_exp_chart(tube2):
    cover, nerve = tube2
    b = tube_bundle_dim2(cover, nerve)
    chart = exp_chart()
    pre = dim2_cover(math.pi)
    pre_cover = Cover(
        pre.ambient.intersect(chart.domain, name="preimage"),
        [(n_, r.intersect(chart.domain, name=n_)) for n_, r in pre.sets],
    )
    pb = pullback(b, chart, pre_cover, dim2_resolution(), k_max=2)
    consts = [
        as_monomial(pb.edge_matrix(0, 1, ci).entries[0][0])[0]
        for ci in range(2)
    ]
    vals = sorted(consts, key=lambda c: c.real)
    assert vals[0] == -1 and vals[1] == 1
    assert not flat_class_test(pb).trivializable


def test_pullback_refuses_a_preimage_set_outside_the_chart(tube2):
    # U1 of D_4 is not cut down to |x_j| < pi, where the chart is injective;
    # decided on the constraint trees, with no sample
    cover, nerve = tube2
    chart = exp_chart()
    (n1, u1), (n2, u2) = dim2_cover(4.0).sets
    pre_cover = Cover(chart.domain, [(n1, u1), (n2, u2.intersect(chart.domain, name=n2))])
    with pytest.raises(ChartError, match="preimage set 'U1' leaves the injectivity chart"):
        pullback(tube_bundle_dim2(cover, nerve), chart, pre_cover, dim2_resolution(), k_max=2)


def test_pullback_refuses_a_preimage_set_whose_image_leaves_its_target(tube2):
    # listed first, U2 must map into phiU1, and its points with y2 > |y1| do not
    cover, nerve = tube2
    chart = exp_chart()
    pre = dim2_cover(math.pi)
    sets = [(n_, r.intersect(chart.domain, name=n_)) for n_, r in reversed(pre.sets)]
    pre_cover = Cover(pre.ambient.intersect(chart.domain, name="preimage"), sets)
    with pytest.raises(ChartError, match="image of preimage set 'U2' leaves its target set"):
        pullback(tube_bundle_dim2(cover, nerve), chart, pre_cover, dim2_resolution(), k_max=2)


_Y_BALL = CLt(SSum((SPow(SY(0), 2), SPow(SY(1), 2))), SConst(1.0))
# |x_j| < pi alone: the exp chart is injective there for every y
_X_STRIP = Region(
    "|x|<pi",
    CAnd(tuple(CLt(SPow(SX(j), 2), SConst(math.pi * math.pi)) for j in range(2))),
    exp_chart().domain.bbox,
)


def _exp_pre_cover(r=math.pi, domain=None, extra=(), without=()) -> tuple[ChartMap, Cover]:
    """The exp chart on `domain` (default: its own, D_pi), and dim2_cover(r)
    cut down to it, each set with the conjuncts `extra` added and those in
    `without` removed."""
    chart = exp_chart()
    if domain is not None:
        chart = ChartMap(chart.name, chart.forward, domain)
    pre = dim2_cover(r)
    sets = []
    for name, reg in pre.sets:
        cut = reg.intersect(chart.domain)
        own = [c for c in conjuncts(cut.constraint) if c not in without]
        sets.append((name, Region(name, CAnd(tuple(own) + tuple(extra)), cut.bbox)))
    return chart, Cover(pre.ambient.intersect(chart.domain, name="preimage"), sets)


def test_pushed_conjuncts_are_the_tube_sets_conjuncts(tube2):
    # the y-ball becomes rho < 1 and the half-planes in y become half-planes
    # in eta = -log|w|; the bounds in x have no image
    cover, _ = tube2
    for (_, pre), (_, target) in zip(_exp_pre_cover()[1].sets, cover.sets):
        pushed = {_exp_image(c, 2) for c in conjuncts(pre.constraint) if reads_y_only(c)}
        assert pushed == set(conjuncts(target.constraint))


@pytest.mark.parametrize(
    "chart, pre_cover",
    [
        *(_exp_pre_cover(r) for r in (math.pi, 3.15, 4.0, 7.0)),
        _exp_pre_cover(extra=[CLt(SY(1), SConst(0.75))]),
        _exp_pre_cover(extra=[CLt(SPow(SX(0), 2), SConst(0.25))]),
        _exp_pre_cover(domain=_X_STRIP),
    ],
    ids=["pi", "3.15", "4", "7", "y2-bound", "x1-bound", "x-strip-chart"],
)
def test_sampled_images_stay_in_the_targets_pullback_accepts(tube2, chart, pre_cover):
    cover, nerve = tube2
    b = tube_bundle_dim2(cover, nerve)
    pullback(b, chart, pre_cover, dim2_resolution(), k_max=2)
    for seed in range(10):
        assert escaping_sets(b, chart, pre_cover, np.random.default_rng(seed)) == []


def _exp2_chart() -> ChartMap:
    chart = exp_chart()
    forward = tuple(Exp(Product((Const(2j), Coord(j)))) for j in range(2))
    return ChartMap("exp(2i.)", forward, chart.domain)


def _with_target_conjunct(cover: Cover, extra) -> Cover:
    sets = [(n_, Region(n_, CAnd((reg.constraint, extra)), reg.bbox)) for n_, reg in cover.sets]
    return Cover(cover.ambient, sets)


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("swapped", "image of preimage set 'U2' leaves its target set"),
        ("target-eps-half", "image of preimage set 'U1' leaves its target set"),
        ("exp-2i", r"chart 'exp\(2i.\)' is not w_j = e\^\(i z_j\)"),
        ("no-y-ball", "image of preimage set 'U1' leaves its target set"),
        ("target-x1-bound", "image of preimage set 'U1' leaves its target set"),
        ("target-y1-only-rho", "image of preimage set 'U1' leaves its target set"),
    ],
)
def test_pullback_refuses_each_escaping_image(tube2, mutation, message):
    # each mutation lets images leave their targets, as the sampler sees
    cover, nerve = tube2
    chart, pre_cover = _exp_pre_cover()
    if mutation == "swapped":
        pre_cover = Cover(pre_cover.ambient, pre_cover.sets[::-1])
    elif mutation == "target-eps-half":
        cover = tube_cover_dim2(0.5)
        nerve = build_nerve(cover, 2, tube_resolution_dim2())
    elif mutation == "exp-2i":
        chart = _exp2_chart()
    elif mutation == "no-y-ball":
        chart, pre_cover = _exp_pre_cover(domain=_X_STRIP, without=[_Y_BALL])
    elif mutation == "target-x1-bound":
        # |x1| < 1/2 on both sides: an x bound has no image, so Re w1 is free
        x1_bound = CLt(SPow(SX(0), 2), SConst(0.25))
        chart, pre_cover = _exp_pre_cover(extra=[x1_bound])
        cover = _with_target_conjunct(cover, x1_bound)
    else:
        # y1^2 < 1/4 bounds (log|w1|)^2 alone, not rho
        chart, pre_cover = _exp_pre_cover(extra=[CLt(SSum((SPow(SY(0), 2),)), SConst(0.25))])
        cover = _with_target_conjunct(cover, CLt(SRho(), SConst(0.25)))
    b = tube_bundle_dim2(cover, nerve)
    with pytest.raises(ChartError, match=message):
        pullback(b, chart, pre_cover, dim2_resolution(), k_max=2)
    assert escaping_sets(b, chart, pre_cover, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Gluing


def _mono(c: complex, k1: int, k2: int):
    return Product((Const(c), IntPower(Coord(0), k1), IntPower(Coord(1), k2)))


def _mono_inv(e) -> MatExpr:
    c, exps = as_monomial(e)
    factors = (Const(1.0 / c),) + tuple(
        IntPower(Coord(j), -k) for j, k in sorted(exps.items())
    )
    return Product(factors)


def _ball_patch(center) -> AnalyticPatch:
    return AnalyticPatch([CPoint(tuple(center))], lambda p: 0)


def _random_frames(rng, rank: int, count: int) -> list[MatExpr]:
    frames = []
    for _ in range(count):
        def mono():
            c = complex(rng.uniform(0.5, 2.0) * (-1) ** int(rng.integers(2)))
            return _mono(c, int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))

        if rank == 1:
            frames.append(MatExpr(((mono(),),)))
        else:
            frames.append(
                MatExpr(((mono(), mono()), (Const(0), mono())))
            )
    return frames


def _frame_inv(A: MatExpr) -> MatExpr:
    if A.r == 1:
        return MatExpr(((_mono_inv(A.entries[0][0]),),))
    m1, s, m2 = A.entries[0][0], A.entries[0][1], A.entries[1][1]
    i1, i2 = _mono_inv(m1), _mono_inv(m2)
    off = Product((Const(-1), i1, s, i2))
    return MatExpr(((i1, off), (Const(0), i2)))


def _mat_prod(A: MatExpr, B: MatExpr) -> MatExpr:
    """The matrix product A B as sums of products, skipping zero terms."""
    def entry(a: int, b: int):
        terms = tuple(
            Product((A.entries[a][k], B.entries[k][b]))
            for k in range(A.r)
            if Const(0) not in (A.entries[a][k], B.entries[k][b])
        )
        return Sum(terms) if terms else Const(0)

    return MatExpr(tuple(tuple(entry(a, b) for b in range(A.r)) for a in range(A.r)))


def _ball_glue_instance(seed: int, rank: int):
    rng = np.random.default_rng(seed)
    amb = ball_region((2.2, 0.0, 2.0, 0.0), 1.2, name="ambient")
    a1 = ball_region((2.0, 0.0, 2.0, 0.0), 0.45, name="A1")
    a2 = ball_region((2.4, 0.0, 2.0, 0.0), 0.45, name="A2")
    v1 = ball_region((2.2, 0.0, 2.0, 0.0), 0.5, name="V1")
    frames = _random_frames(rng, rank, 2)
    f01 = _mat_prod(frames[1], _frame_inv(frames[0]))
    res_u = Resolution(
        patches={
            (0,): _ball_patch((2.0, 0.0, 2.0, 0.0)),
            (1,): _ball_patch((2.4, 0.0, 2.0, 0.0)),
            (0, 1): _ball_patch((2.2, 0.0, 2.0, 0.0)),
        }
    )
    cover_u = Cover(amb, [("A1", a1), ("A2", a2)])
    nerve_u = build_nerve(cover_u, 1, res_u)
    bU = BundleData(cover_u, nerve_u, rank, {(0, 1): {None: f01}})

    cover_v = Cover(amb, [("V1", v1)])
    res_v = Resolution(patches={(0,): _ball_patch((2.2, 0.0, 2.0, 0.0))})
    nerve_v = build_nerve(cover_v, 1, res_v)
    bV = trivial_bundle(cover_v, nerve_v, rank)

    iso = BundleIso(
        {
            (0, 0): {None: _frame_inv(frames[0])},
            (1, 0): {None: _frame_inv(frames[1])},
        }
    )
    res_glued = Resolution(
        patches={
            (0,): _ball_patch((2.0, 0.0, 2.0, 0.0)),
            (1,): _ball_patch((2.4, 0.0, 2.0, 0.0)),
            (2,): _ball_patch((2.2, 0.0, 2.0, 0.0)),
            (0, 1): _ball_patch((2.2, 0.0, 2.0, 0.0)),
            (0, 2): _ball_patch((2.1, 0.0, 2.0, 0.0)),
            (1, 2): _ball_patch((2.3, 0.0, 2.0, 0.0)),
            (0, 1, 2): _ball_patch((2.2, 0.0, 2.0, 0.0)),
        }
    )
    return bU, bV, iso, res_glued


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("rank", (1, 2))
def test_randomized_glue_instances(seed, rank):
    bU, bV, iso, res = _ball_glue_instance(seed, rank)
    glued, iso_rep, coc_rep = glue(bU, bV, iso, res, k_max=2)
    assert iso_rep.max_residual < 1e-9
    assert coc_rep.passed
    assert (0, 1, 2) in glued.nerve.simplices


def test_glue_rejects_rank_mismatch_and_name_collision():
    bU, bV, iso, res = _ball_glue_instance(0, 1)
    bU2, _, _, _ = _ball_glue_instance(0, 2)
    with pytest.raises(GlueError):
        glue(bU2, bV, iso, res, k_max=2)
    with pytest.raises(GlueError):
        glue(bU, bU, iso, res, k_max=2)


def test_glue_refuses_to_drop_an_input_transition():
    # A1 and A2 still meet in the union cover, but a resolution without that
    # overlap would leave bU's transition on it out of the glued bundle
    bU, bV, iso, res = _ball_glue_instance(3, 1)
    del res.patches[(0, 1)], res.patches[(0, 1, 2)]
    with pytest.raises(GlueError, match=r"no overlap \(0, 1\) for the transition on A1 x A2"):
        glue(bU, bV, iso, res, k_max=2)


def _self_glue_resolution(n: int, k_max: int) -> Resolution:
    letters = sector_letters(n)
    N = len(letters)
    patches = {}
    for size in range(1, min(k_max + 2, 2 * N + 1)):
        for tup in itertools.combinations(range(2 * N), size):
            under = tuple(sorted({i % N for i in tup}))
            patches[tup] = _torus_patch(under, letters, n)
    return Resolution(patches=patches)


def test_self_glue_along_own_transitions(torus2):
    """Gluing a bundle to a renamed copy of itself along its own transition
    matrices reproduces its characteristic cochain on the restriction."""
    cover, nerve = torus2
    n = 2
    b = lnt_bundle(cover, nerve)
    copy_cover = Cover(cover.ambient, [("T" + nm, reg) for nm, reg in cover.sets])
    eps = 1.0
    copy_nerve = build_nerve(copy_cover, 3, torus_resolution(n, eps, 3))
    b2 = BundleData(copy_cover, copy_nerve, 1, b.transitions)

    letters = sector_letters(n)
    N = len(letters)
    h = {}
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            lo, hi = min(i, j), max(i, j)
            cases = {}
            for ci in range(len(nerve.components((lo, hi)))):
                e = b.edge_matrix(lo, hi, ci).entries[0][0]
                if (i, j) != (lo, hi):
                    e = _mono_inv(e)
                cases[ci] = MatExpr(((e,),))
            h[(i, j)] = cases
    iso = BundleIso(h)
    glued, iso_rep, coc_rep = glue(b, b2, iso, _self_glue_resolution(n, 2), k_max=2)
    assert iso_rep.max_residual < 1e-9
    assert coc_rep.passed
    back = restrict_to_sets(glued, list(range(N)))
    assert chern_cocycle(back).values == chern_cocycle(b).values


def test_validate_iso_detects_wrong_iso():
    bU, bV, iso, res = _ball_glue_instance(1, 1)
    bad = BundleIso({k: {None: MatExpr(((Const(2.0),),))} for k in iso.h})
    glued, iso_rep, coc_rep = glue(bU, bV, bad, res, k_max=2)
    assert iso_rep.max_residual > 1e-3


def test_validate_iso_flags_singular_iso():
    bU, bV, iso, res = _ball_glue_instance(1, 1)
    zero = BundleIso({k: {None: MatExpr(((Const(0.0),),))} for k in iso.h})
    glued, iso_rep, coc_rep = glue(bU, bV, zero, res, k_max=2)
    assert not iso_rep.det_floor_ok and not iso_rep.passed
    assert iso_rep.to_jsonable()["det_floor_ok"] is False
    assert "determinant below floor" in iso_rep.worst_location
    assert iso_rep.points_checked > 0


def test_singular_point_keeps_its_location_in_both_reports():
    # h(0,0) = (z0 - 2.2)(z0 - 2.1) vanishes at the representatives of the
    # triple (0, 1, 2) and of the mixed edge (0, 2), so its determinant is no
    # unit, and it is wrong, so the identities through it carry residuals; the
    # reports keep the first determinant failure as the location.
    bU, bV, iso, res = _ball_glue_instance(1, 1)
    h = dict(iso.h)
    roots = (Sum((Coord(0), Const(-2.2))), Sum((Coord(0), Const(-2.1))))
    h[(0, 0)] = {None: MatExpr(((Product(roots),),))}
    glued, iso_rep, coc_rep = glue(bU, bV, BundleIso(h), res, k_max=2)
    assert not iso_rep.det_floor_ok and iso_rep.max_residual > 1e-3
    assert iso_rep.worst_location == "mixed simplex (0, 1, 2) comp 0: determinant below floor"
    assert not coc_rep.det_floor_ok and coc_rep.max_residual > 1e-3
    assert coc_rep.worst_location == "edge (0, 2) comp 0: determinant below floor"


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rank", (1, 2))
def test_exact_check_agrees_with_evaluation(seed, rank):
    """On random monomial frames the exact identities hold; scaling one entry
    of one transition by 1 + 1e-3 breaks the triple identity, exactly and at
    the triple's representative in floating point alike."""
    bU, bV, iso, res = _ball_glue_instance(seed, rank)
    glued, iso_rep, coc_rep = glue(bU, bV, iso, res, k_max=2)
    assert iso_rep.passed and coc_rep.passed and coc_rep.points_checked == 1

    def identity_at_rep(b: BundleData) -> float:
        z = b.nerve.components((0, 1, 2))[0]
        f = {e: b.edge_matrix(*e, 0).at(z) for e in ((0, 1), (0, 2), (1, 2))}
        return float(np.max(np.abs(f[(1, 2)] @ f[(0, 1)] - f[(0, 2)])))

    assert identity_at_rep(glued) < 1e-9
    table = dict(glued.transitions)
    rows = [list(row) for row in table[(0, 1)][None].entries]
    rows[0][0] = Product((Const(1 + 1e-3), rows[0][0]))
    table[(0, 1)] = {None: MatExpr(tuple(tuple(row) for row in rows))}
    broken = BundleData(glued.cover, glued.nerve, rank, table)
    rep = validate_cocycle(broken)
    assert not rep.passed and rep.det_floor_ok
    assert rep.worst_location == "triple (0, 1, 2) comp 0"
    assert identity_at_rep(broken) > 1e-9
