"""Resolved nerves, the integer differential, and exact cohomology."""

import os
import subprocess
import sys

import numpy as np
import pytest

import cechcert

from cechcert.errors import NotACocycleError, ResolutionError
from cechcert.geometry import (
    CAnd,
    CPoint,
    Region,
    SAbsZ,
    SConst,
    SX,
    ball_region,
    lt,
)
from cechcert.nerve import (
    AnalyticPatch,
    Cover,
    GridResolution,
    IntCochain,
    Resolution,
    build_nerve,
    check_cover,
    coboundary,
    cohomology,
    delta_matrix,
    is_coboundary,
)
from cechcert.covers import (
    dim2_cover,
    dim2_generator_cochain,
    dim2_resolution,
    one_set_cover,
    torus_cover,
    torus_resolution,
)


@pytest.fixture(scope="module")
def dim2_nerve():
    return build_nerve(dim2_cover(4.0), 2, dim2_resolution())


def _annulus(name: str = "annulus") -> Region:
    c = CAnd((lt(SConst(1.0), SAbsZ(0)), lt(SAbsZ(0), SConst(2.0))))
    return Region(name, c, np.array([[-2.0, 2.0], [-2.0, 2.0]]))


def _arc_cover(order=("A", "B")) -> Cover:
    ann = _annulus()
    a = ann.intersect(Region("xpos", lt(SConst(-0.5), SX(0)), ann.bbox), name="A")
    b = ann.intersect(Region("xneg", lt(SX(0), SConst(0.5)), ann.bbox), name="B")
    named = {"A": a, "B": b}
    return Cover(ann, [(n, named[n]) for n in order])


def _grid_res(step: float = 0.05) -> Resolution:
    return Resolution(grid=GridResolution(step=step))


def test_cover_name_uniqueness():
    ann = _annulus()
    with pytest.raises(ValueError):
        Cover(ann, [("A", ann), ("A", ann)])


def test_check_cover_dim2():
    check_cover(dim2_cover(4.0), np.random.default_rng(0))


def test_check_cover_detects_escape():
    ann = _annulus()
    big = ball_region((0.0, 0.0), 3.0, name="big")
    with pytest.raises(ResolutionError):
        check_cover(Cover(ann, [("big", big)]), np.random.default_rng(0))


def test_dim2_overlap_has_two_components(dim2_nerve):
    assert dim2_nerve.simplices_of_dim(0) == [(0,), (1,)]
    assert dim2_nerve.simplices_of_dim(1) == [(0, 1)]
    assert len(dim2_nerve.components((0, 1))) == 2


def test_dim2_face_maps_are_total(dim2_nerve):
    for ci in range(2):
        for m in range(2):
            assert dim2_nerve.face_component((0, 1), ci, m) == 0


def test_dim2_coboundary_of_zero_cochain(dim2_nerve):
    c = IntCochain(0, "Z", {(((0,)), 0): 3, (((1,)), 0): 5})
    d = coboundary(dim2_nerve, c)
    # both overlap components receive the same difference a_2 - a_1
    assert d.get((0, 1), 0) == 2
    assert d.get((0, 1), 1) == 2


def test_dim2_h1_rank_one_and_generator(dim2_nerve):
    h1 = cohomology(dim2_nerve, 1)
    assert h1.free_rank == 1
    assert h1.torsion == ()
    gen = dim2_generator_cochain()
    verdict = is_coboundary(dim2_nerve, gen)
    assert not verdict.yes
    assert verdict.obstruction is not None


def test_dim2_equal_values_are_coboundaries(dim2_nerve):
    c = IntCochain(1, "Z", {((0, 1), 0): 4, ((0, 1), 1): 4})
    verdict = is_coboundary(dim2_nerve, c)
    assert verdict.yes
    again = coboundary(dim2_nerve, verdict.primitive)
    assert again.get((0, 1), 0) == 4 and again.get((0, 1), 1) == 4


_WRONG_PRIMITIVE = """
import sys
import cechcert.nerve as nerve
from cechcert.covers import dim2_cover, dim2_resolution

if not sys.flags.optimize:
    sys.exit(3)
solve = nerve.solve_integer


def doubled(snf, c, modulus=None):
    x, obs = solve(snf, c, modulus=modulus)
    return 2 * x, obs


nerve.solve_integer = doubled
n = nerve.build_nerve(dim2_cover(4.0), 2, dim2_resolution())
nerve.is_coboundary(n, nerve.IntCochain(1, "Z", {((0, 1), 0): 4, ((0, 1), 1): 4}))
"""


def test_is_coboundary_rechecks_primitive_under_optimize():
    # a solver that returns 2x instead of x must be caught even with -O,
    # which strips assert statements
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_PRIMITIVE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "VerificationError: primitive fails d(b) = c" in proc.stderr


def test_is_coboundary_zero_and_constant(dim2_nerve):
    zero = IntCochain(1, "Z", {})
    assert is_coboundary(dim2_nerve, zero).yes
    const = IntCochain(0, "Z", {((0,), 0): 1, ((1,), 0): 1})
    assert coboundary(dim2_nerve, const).is_zero()
    assert not is_coboundary(dim2_nerve, const).yes


def test_bad_rep_rejected():
    cover = dim2_cover(4.0)
    res = Resolution(
        patches={
            (0,): AnalyticPatch([CPoint((0.0, 0.0, 0.0, 5.0))], lambda p: 0),
        }
    )
    with pytest.raises(ResolutionError):
        build_nerve(cover, 1, res)


def test_self_mislabeling_rejected():
    cover = dim2_cover(4.0)
    good = dim2_resolution()
    bad = Resolution(patches=dict(good.patches))
    edge = bad.patches[(0, 1)]
    bad.patches[(0, 1)] = AnalyticPatch(edge.reps, lambda p: 1 - edge.locate(p))
    with pytest.raises(ResolutionError):
        build_nerve(cover, 2, bad)


def test_annulus_arcs_grid_two_components():
    nerve = build_nerve(_arc_cover(), 2, _grid_res())
    assert len(nerve.components((0, 1))) == 2
    assert cohomology(nerve, 0).free_rank == 1
    assert cohomology(nerve, 1).free_rank == 1


def test_annulus_rank_stable_under_permutation_and_refinement():
    base = cohomology(build_nerve(_arc_cover(), 2, _grid_res()), 1).free_rank
    flipped = cohomology(build_nerve(_arc_cover(("B", "A")), 2, _grid_res()), 1).free_rank
    finer = cohomology(build_nerve(_arc_cover(), 2, _grid_res(0.04)), 1).free_rank
    assert base == flipped == finer == 1


def test_cross_check_catches_undercounting():
    cover = _arc_cover()
    rep = CPoint((0.0, 1.5))  # the upper arc of the overlap
    res = Resolution(
        patches={(0, 1): AnalyticPatch([rep], lambda p: 0)},
        grid=GridResolution(step=0.05),
        cross_check=True,
    )
    with pytest.raises(ResolutionError):
        build_nerve(cover, 2, res)


def test_one_set_cover_trivial_cohomology():
    cover, res = one_set_cover(ball_region((0.0, 0.0, 0.0, 0.0), 1.0), CPoint((0.0,) * 4))
    nerve = build_nerve(cover, 3, res)
    assert cohomology(nerve, 0).free_rank == 1
    for k in (1, 2):
        assert cohomology(nerve, k).free_rank == 0
        assert cohomology(nerve, k).torsion == ()


@pytest.fixture(scope="module")
def torus_nerve():
    n, eps = 2, 1.0
    return build_nerve(torus_cover(n, eps), 3, torus_resolution(n, eps, 3))


def test_torus_nerve_faces_commute(torus_nerve):
    torus_nerve.check_faces()


def test_torus_ranks(torus_nerve):
    assert cohomology(torus_nerve, 0).free_rank == 1
    h1 = cohomology(torus_nerve, 1)
    h2 = cohomology(torus_nerve, 2)
    assert h1.free_rank == 2 and h1.torsion == ()
    assert h2.free_rank == 1 and h2.torsion == ()
    for gen in h1.generators + h2.generators:
        assert coboundary(torus_nerve, gen).is_zero()
        assert not is_coboundary(torus_nerve, gen).yes


def test_torus_z2_ranks(torus_nerve):
    assert cohomology(torus_nerve, 1, ring="Z2").free_rank == 2
    assert cohomology(torus_nerve, 2, ring="Z2").free_rank == 1


def test_dd_is_zero_random(torus_nerve):
    rng = np.random.default_rng(17)
    for k in (0, 1):
        basis = torus_nerve.basis(k)
        for _ in range(50):
            vals = {key: int(v) for key, v in zip(basis, rng.integers(-5, 6, len(basis)))}
            c = IntCochain(k, "Z", vals)
            assert coboundary(torus_nerve, coboundary(torus_nerve, c)).is_zero()


def test_delta_matrix_matches_coboundary(torus_nerve):
    rng = np.random.default_rng(3)
    for k in (0, 1, 2):
        M = delta_matrix(torus_nerve, k)
        basis = torus_nerve.basis(k)
        vals = {key: int(v) for key, v in zip(basis, rng.integers(-3, 4, len(basis)))}
        c = IntCochain(k, "Z", vals)
        lhs = coboundary(torus_nerve, c).vector(torus_nerve)
        rhs = M.astype(object) @ c.vector(torus_nerve)
        assert np.array_equal(lhs, rhs)


def test_not_a_cocycle_rejected(torus_nerve):
    basis = torus_nerve.basis(1)
    c = IntCochain(1, "Z", {basis[0]: 1})
    if coboundary(torus_nerve, c).is_zero():
        pytest.skip("chosen cochain happens to be closed")
    with pytest.raises(NotACocycleError):
        is_coboundary(torus_nerve, c)


def test_subnerve_restriction(dim2_nerve):
    sub = dim2_nerve.subnerve([1])
    assert sub.simplices_of_dim(0) == [(0,)]
    assert sub.simplices_of_dim(1) == []
    assert cohomology(sub, 1).free_rank == 0
