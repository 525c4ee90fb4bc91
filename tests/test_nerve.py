"""Resolved nerves, the integer differential, and exact cohomology."""

import contextlib
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from datetime import timedelta
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

import cechcert

from cechcert import nerve as nerve_mod
from cechcert import scenarios as scenarios_mod
from cechcert import snf as snf_mod
from cechcert.errors import NotACocycleError, ResolutionError, VerificationError
from cechcert.geometry import (
    CAnd,
    CLt,
    COr,
    CPoint,
    Region,
    SAbsZ,
    SConst,
    SX,
    ball_region,
)
from cechcert.nerve import (
    AnalyticPatch,
    Cover,
    IntCochain,
    Resolution,
    ResolvedNerve,
    build_nerve,
    check_cover,
    coboundary,
    cohomology,
    delta_matrix,
    delta_rows,
    is_coboundary,
)
from cechcert.bundles import chern_cocycle
from cechcert.covers import (
    _torus_patch,
    dr_region,
    dim2_cover,
    dim2_generator_cochain,
    dim2_resolution,
    glued_resolution,
    lnt_bundle,
    omega_prime_region,
    one_set_cover,
    sector_letters,
    torus_cover,
    torus_resolution,
    tube_cover_dim2,
    tube_resolution_dim2,
    up_ball,
)
from cechcert.scenarios import torus_rank_table
from cechcert.snf import pivot_divisors as snf_pivot_divisors, smith_divisors

from cover_samplers import sampled_check_cover
from dd_product import product_guard


@pytest.fixture(scope="module")
def dim2_nerve():
    return build_nerve(dim2_cover(4.0), 2, dim2_resolution())


def _annulus(name: str = "annulus") -> Region:
    c = CAnd((CLt(SConst(1.0), SAbsZ(0)), CLt(SAbsZ(0), SConst(2.0))))
    return Region(name, c, np.array([[-2.0, 2.0], [-2.0, 2.0]]))


def _arc_cover(order=("A", "B")) -> Cover:
    ann = _annulus()
    a = ann.intersect(Region("xpos", CLt(SConst(-0.5), SX(0)), ann.bbox), name="A")
    b = ann.intersect(Region("xneg", CLt(SX(0), SConst(0.5)), ann.bbox), name="B")
    named = {"A": a, "B": b}
    return Cover(ann, [(n, named[n]) for n in order])


def test_cover_name_uniqueness():
    ann = _annulus()
    with pytest.raises(ValueError):
        Cover(ann, [("A", ann), ("A", ann)])


def test_check_cover_dim2():
    # the exact argument passes, and the sampler it replaced finds no escape
    for r in (3.15, 4.0, 7.0):
        cover = dim2_cover(r)
        check_cover(cover)
        for seed in range(6):
            sampled_check_cover(cover, np.random.default_rng(seed))


def test_dim2_ambient_holds_every_point_off_the_plane_in_floats():
    # y1^2 + y2^2 underflows to 0 below |y| ~ 1.5e-162; the ambient compares
    # y1 and y2 with 0 themselves, as the sets do
    cover = dim2_cover(4.0)
    pts = np.array([[0.0, 1e-200, 0.0, 0.0], [0.0, 0.0, 0.0, -5e-324], [0.0, 0.0, 0.0, 0.0]])
    assert cover.ambient.mask(pts) == [True, True, False]
    assert [a or b for a, b in zip(cover.region(0).mask(pts), cover.region(1).mask(pts))] == [True, True, False]


def test_check_cover_detects_escape():
    ann = _annulus()
    big = ball_region((0.0, 0.0), 3.0, name="big")
    with pytest.raises(ResolutionError):
        check_cover(Cover(ann, [("big", big)]))
    with pytest.raises(ResolutionError):
        sampled_check_cover(Cover(ann, [("big", big)]), np.random.default_rng(0))


def _broken_dim2_covers() -> dict:
    cover = dim2_cover(4.0)
    (n1, u1), (n2, u2) = cover.sets
    dr, union1 = u1.constraint.items
    union2 = u2.constraint.items[1]

    def u1_with(union):
        return (n1, Region(n1, CAnd((dr, union)), u1.bbox))

    return {
        # leaves the ray y1 = y2 < 0 uncovered, a set no sample hits
        "U1 without a half-plane": [u1_with(COr(union1.items[:1])), (n2, u2)],
        "U2 without the D_r conjunct": [(n1, u1), (n2, Region(n2, union2, u2.bbox))],
        "only U1": [(n1, u1)],
        "U1 with a half-space in x": [u1_with(COr(union1.items + (CLt(SX(0), SConst(0.0)),))), (n2, u2)],
        "a union of no half-plane": [u1_with(COr(())), (n2, Region(n2, CAnd((dr, COr(()))), u2.bbox))],
    }


@pytest.mark.parametrize("case", list(_broken_dim2_covers()))
def test_check_cover_refuses_a_broken_dim2_cover(case):
    cover = Cover(dim2_cover(4.0).ambient, _broken_dim2_covers()[case])
    with pytest.raises(ResolutionError):
        check_cover(cover)
    if case == "U1 without a half-plane":
        sampled_check_cover(cover, np.random.default_rng(0))


def test_check_cover_refuses_an_ambient_that_keeps_the_plane():
    cover = dim2_cover(4.0)
    with pytest.raises(ResolutionError, match="does not remove y = 0"):
        check_cover(Cover(dr_region(4.0), cover.sets))


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
    # the witness is the loop through both overlap components: it pairs to 0
    # with every coboundary (equal values on the two) and to 1 with gen
    assert verdict.modulus == 0
    assert verdict.witness.values == {((0, 1), 0): -1, ((0, 1), 1): 1}


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


def doubled(M, c, modulus=None):
    x, obs = solve(M, c, modulus=modulus)
    return [2 * v for v in x], obs


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


_WRONG_WITNESS = """
import sys
import cechcert.nerve as nerve
from cechcert.covers import dim2_cover, dim2_generator_cochain, dim2_resolution

if not sys.flags.optimize:
    sys.exit(3)
solve = nerve.solve_integer


def corrupted(M, c, modulus=None):
    x, (y, q) = solve(M, c, modulus=modulus)
    if sys.argv[1] == "entry":
        r = min(y)
        y = {**y, r: -y[r]}
    else:
        q = 1
    return x, (y, q)


nerve.solve_integer = corrupted
n = nerve.build_nerve(dim2_cover(4.0), 2, dim2_resolution())
nerve.is_coboundary(n, dim2_generator_cochain())
"""


@pytest.mark.parametrize("corruption", ["entry", "modulus"])
def test_is_coboundary_rechecks_witness_under_optimize(corruption):
    # a witness with one entry negated no longer sums to 0 against d^0, and
    # modulo q = 1 nothing is nonzero: both must be caught even with -O
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cechcert.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _WRONG_WITNESS, corruption],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "VerificationError: witness fails" in proc.stderr


@pytest.mark.parametrize("case", ["dim2", "dim2-mod-2", "clutching-n2"])
def test_every_corrupted_witness_entry_is_caught(case, dim2_nerve, torus_nerve, monkeypatch):
    # negating an entry of an exact witness (or clearing one mod 2) moves
    # y . d by a nonzero multiple of one row of d, so the re-check must fail
    if case == "clutching-n2":
        nerve, c = torus_nerve, chern_cocycle(lnt_bundle(torus_cover(2, 1.0), torus_nerve))
    elif case == "dim2":
        nerve, c = dim2_nerve, dim2_generator_cochain()
    else:  # the half-scale push's sign cochain: -1 on component 1 only
        nerve, c = dim2_nerve, IntCochain(1, "Z2", {((0, 1), 1): 1})
    mod2 = c.ring == "Z2"
    rows = delta_rows(nerve, c.degree - 1)
    _, (y, q) = nerve_mod.solve_integer(rows, c.vector(nerve), modulus=2 if mod2 else None)
    assert q == (2 if mod2 else 0) and is_coboundary(nerve, c).witness is not None
    for r in y:
        bad = {**y, r: 0 if q == 2 else -y[r]}
        monkeypatch.setattr(nerve_mod, "solve_integer", lambda *a, **kw: (None, (bad, q)))
        with pytest.raises(VerificationError, match="witness fails"):
            is_coboundary(nerve, c)


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


def test_annulus_arcs_two_components():
    nerve = build_nerve(_arc_cover(), 2, _arc_patches([CPoint((0.0, 1.5)), CPoint((0.0, -1.5))]))
    assert len(nerve.components((0, 1))) == 2
    assert cohomology(nerve, 0).free_rank == 1
    assert cohomology(nerve, 1).free_rank == 1


def test_annulus_rank_stable_under_permutation():
    reps_01 = [CPoint((0.0, 1.5)), CPoint((0.0, -1.5))]
    base = build_nerve(_arc_cover(), 2, _arc_patches(reps_01))
    flipped = build_nerve(_arc_cover(("B", "A")), 2, _arc_patches(reps_01, ("B", "A")))
    assert cohomology(base, 1).free_rank == cohomology(flipped, 1).free_rank == 1


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


def _mutated(nerve, k, r, change):
    """A copy of `nerve` whose face table of degree k has row r replaced by
    `change` of it (a list, which it may edit in place)."""
    tables = {d: [list(col) for col in cols] for d, cols in nerve.face_tables.items()}
    for col, face in zip(tables[k], change([col[r] for col in tables[k]])):
        col[r] = face
    return ResolvedNerve(nerve.cover, nerve.k_max, nerve.simplices, tables, nerve.locators)


def _swapped(a, b):
    """A face-table row change that swaps the faces on facets a and b."""

    def change(row):
        row[a], row[b] = row[b], row[a]
        return row

    return change


def _moved(nerve, k, m):
    """A face-table row change of degree k that sends the face on facet m to
    the next component of that facet."""

    def change(row):
        facet, ci = nerve.basis(k - 1)[row[m]]
        row[m] += (ci + 1) % len(nerve.components(facet)) - ci
        return row

    return change


def test_torus_nerve_faces_commute(torus_nerve):
    # the two face paths from a simplex to a codimension-2 face carry opposite
    # signs, so d^k d^{k-1} = 0, which `cohomology` checks exactly, holds
    # exactly when both paths land on one component
    for k in range(torus_nerve.k_max):
        cohomology(torus_nerve, k)
    quad, facet = (0, 1, 2, 3), (1, 2, 3)
    n_comps = len(torus_nerve.components(facet))
    assert n_comps > 1
    # move the face of (quad, 0) on its facet 0 to another component of it
    moved_to = (torus_nerve.face_component(quad, 0, 0) + 1) % n_comps
    moved = _mutated(torus_nerve, 3, torus_nerve.offset(quad), _moved(torus_nerve, 3, 0))
    assert moved.face_component(quad, 0, 0) == moved_to
    with pytest.raises(VerificationError, match="d\\^2 d\\^1 is not zero"):
        cohomology(moved, 2)


def test_torus_ranks(torus_nerve):
    assert cohomology(torus_nerve, 0).free_rank == 1
    h1 = cohomology(torus_nerve, 1)
    h2 = cohomology(torus_nerve, 2)
    assert h1.free_rank == 2 and h1.torsion == ()
    assert h2.free_rank == 1 and h2.torsion == ()


def test_cohomology_rejects_broken_differential(torus_nerve):
    # the first row of d^1 with the faces on its first two facets swapped
    broken = _mutated(torus_nerve, 2, 0, _swapped(0, 1))
    with pytest.raises(VerificationError, match="d\\^1 d\\^0 is not zero"):
        cohomology(broken, 1)
    # the same row is a column of d^2
    with pytest.raises(VerificationError, match="d\\^2 d\\^1 is not zero"):
        cohomology(broken, 2, ring="Z2")


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


def test_delta_rows_match_delta_matrix_and_coboundary(torus_nerve):
    rng = np.random.default_rng(3)
    for k in (0, 1, 2):
        rows = delta_rows(torus_nerve, k)
        M = delta_matrix(torus_nerve, k)
        assert M.shape == (len(torus_nerve.basis(k + 1)), len(torus_nerve.basis(k)))
        assert len(rows) == M.shape[0]
        for r, row in enumerate(rows):
            assert row == {int(c): int(M[r, c]) for c in np.flatnonzero(M[r])}
        basis = torus_nerve.basis(k)
        vals = {key: int(v) for key, v in zip(basis, rng.integers(-3, 4, len(basis)))}
        c = IntCochain(k, "Z", vals)
        lhs = coboundary(torus_nerve, c).vector(torus_nerve)
        vec = c.vector(torus_nerve)
        assert np.array_equal(lhs, M.astype(object) @ vec)
        assert list(lhs) == [sum(v * vec[j] for j, v in row.items()) for row in rows]


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


def _arc_patches(reps_01, order=("A", "B")) -> Resolution:
    """Analytic patches of `_arc_cover(order)`: each arc is connected, and the
    overlap splits by the sign of y."""
    arc_rep = {"A": CPoint((1.5, 0.0)), "B": CPoint((-1.5, 0.0))}
    return Resolution(
        patches={
            (0,): AnalyticPatch([arc_rep[order[0]]], lambda p: 0),
            (1,): AnalyticPatch([arc_rep[order[1]]], lambda p: 0),
            (0, 1): AnalyticPatch(reps_01, lambda p: 0 if p.xy[1] > 0 else 1),
        }
    )


def test_representative_outside_the_intersection_is_named():
    # (1.5, 0) lies in arc A (set 0) but not in arc B (set 1)
    res = _arc_patches([CPoint((0.0, 1.5)), CPoint((1.5, 0.0))])
    with pytest.raises(
        ResolutionError, match=r"representative 1 of \(0, 1\) is outside the intersection"
    ):
        build_nerve(_arc_cover(), 1, res)


def test_labeler_mislabeling_its_representative_is_named():
    # both arcs of the overlap are in the intersection, listed in the wrong order
    res = _arc_patches([CPoint((0.0, -1.5)), CPoint((0.0, 1.5))])
    with pytest.raises(
        ResolutionError, match=r"labeler of \(0, 1\) mislabels its own representative 0"
    ):
        build_nerve(_arc_cover(), 1, res)


def _reference_nerve(cover, k_max, resolution):
    """Analytic nerve with membership tested one representative at a time
    by `Region.contains` on the intersection, and every face located."""
    n_sets = len(cover.sets)
    simplices, faces = {}, {}
    for size in range(1, min(k_max + 2, n_sets + 1)):
        for s in itertools.combinations(range(n_sets), size):
            if size > 1 and any(s[:m] + s[m + 1 :] not in simplices for m in range(size)):
                continue
            patch = resolution.patches.get(s)
            if patch is None:
                continue
            region = cover.intersection(s)
            assert all(region.contains(rep) for rep in patch.reps)
            simplices[s] = list(patch.reps)
            if size > 1:
                for ci, rep in enumerate(patch.reps):
                    for m in range(size):
                        facet = s[:m] + s[m + 1 :]
                        faces[(s, ci, m)] = resolution.patches[facet].locate(rep)
    return simplices, faces


def _faces(nerve):
    """Every (simplex, component, facet) face of a nerve, through `face_component`."""
    return {
        (s, ci, m): nerve.face_component(s, ci, m)
        for s, comps in nerve.simplices.items()
        if len(s) > 1
        for ci in range(len(comps))
        for m in range(len(s))
    }


def _glued_cover(n, eps, safety):
    """The sector cover with Omega' as one more set, as `glue` unites them."""
    sectors = torus_cover(n, eps)
    omega_prime = omega_prime_region(n, eps, up_ball(n, eps, safety))
    return Cover(sectors.ambient, sectors.sets + [("Omega_prime", omega_prime)])


@pytest.mark.parametrize(
    "cover, k_max, res",
    [
        (torus_cover(2, 1.0), 3, torus_resolution(2, 1.0, 3)),
        (torus_cover(3, 1.5), 4, torus_resolution(3, 1.5, 4)),
        (torus_cover(8, 4.0, 2), 3, torus_resolution(8, 4.0, 3, 2)),
        (_glued_cover(2, 1.0, 0.5), 3, glued_resolution(2, 1.0, 0.5, 3)),
        (tube_cover_dim2(1.0), 2, tube_resolution_dim2()),
        (dim2_cover(4.0), 2, dim2_resolution()),
    ],
    ids=["torus-n2", "torus-n3", "slice-n8", "glued", "tube-dim2", "dim2"],
)
def test_batched_membership_matches_contains(cover, k_max, res):
    members = nerve_mod._set_members(cover, res)
    checked = 0
    for s, patch in res.patches.items():
        region = cover.intersection(s)
        for rep in patch.reps:
            assert members[rep].issuperset(s) == region.contains(rep)
            checked += 1
    assert checked > 0
    nerve = build_nerve(cover, k_max, res)
    simplices, faces = _reference_nerve(cover, k_max, res)
    assert nerve.simplices == simplices
    assert _faces(nerve) == faces
    # one table row per basis element, one column per facet
    for k, cols in nerve.face_tables.items():
        assert [len(col) for col in cols] == [len(nerve.basis(k))] * (k + 1)


def test_subnerve_faces_match_the_located_faces():
    # drop the sets with letter B at z_1 (2 and 3) from the n = 2 glued cover
    cover, res = _glued_cover(2, 1.0, 0.5), glued_resolution(2, 1.0, 0.5, 3)
    keep = [0, 1, 4]
    sub = build_nerve(cover, 3, res).subnerve(keep)
    renamed = Resolution(
        {tuple(keep.index(i) for i in s): p for s, p in res.patches.items() if set(s) <= set(keep)}
    )
    simplices, faces = _reference_nerve(Cover(cover.ambient, [cover.sets[i] for i in keep]), 3, renamed)
    assert sub.simplices == simplices
    assert _faces(sub) == faces
    assert cohomology(sub, range(3)) == cohomology(build_nerve(sub.cover, 3, renamed), range(3))


def test_subnerve_needs_increasing_indices(dim2_nerve):
    with pytest.raises(ValueError, match="increasing"):
        dim2_nerve.subnerve([1, 0])


def _counting(res):
    """A copy of `res` whose patches count their `locate` calls; a patch
    shared between simplices stays shared."""
    calls = [0]

    def wrap(locate):
        def counted(p):
            calls[0] += 1
            return locate(p)

        return counted

    copies = {}
    for patch in res.patches.values():
        if id(patch) not in copies:
            copies[id(patch)] = dataclasses.replace(patch, locate=wrap(patch.locate))
    return Resolution({s: copies[id(p)] for s, p in res.patches.items()}), calls


def test_sector_faces_are_projected_not_located():
    cover, res = torus_cover(3, 1.5), torus_resolution(3, 1.5, 4)
    # every simplex its own patch: one labeler check per representative
    unshared = Resolution({s: dataclasses.replace(p) for s, p in res.patches.items()})
    counted, calls = _counting(unshared)
    nerve = build_nerve(cover, 4, counted)
    n_reps = sum(len(comps) for comps in nerve.simplices.values())
    assert n_reps == 1448 and calls[0] == n_reps
    # shared patches: one check per distinct patch, 2^|diff| representatives
    # each over the 3^3 ways of choosing A, B or both per coordinate
    counted, calls = _counting(res)
    assert _faces(build_nerve(cover, 4, counted)) == _faces(nerve)
    assert len({id(p) for p in res.patches.values()}) == 27 and calls[0] == 4**3


def test_face_map_outside_the_facet_is_refused():
    good = _arc_patches([CPoint((0.0, 1.5)), CPoint((0.0, -1.5))])
    arc_a = good.patches[(0,)].reps[0]
    # arc A labels its own representative 0 and every other point 1: the
    # overlap's representatives would land on a component A does not have
    bad = Resolution(dict(good.patches))
    bad.patches[(0,)] = AnalyticPatch([arc_a], lambda p: 0 if p == arc_a else 1)
    with pytest.raises(ResolutionError, match=r"face map of \(0, 1\) onto \(0,\) misses"):
        build_nerve(_arc_cover(), 1, bad)


# ---------------------------------------------------------------------------
# The one-pass table: clearing, its guard, and shared representatives


@contextlib.contextmanager
def _recorded_divisors():
    """Keep the divisors of each elimination `cohomology` makes, in order."""
    seen = []

    def recording(rows):
        out = snf_pivot_divisors(rows)
        seen.append(out[0])
        return out

    with patch.object(nerve_mod, "pivot_divisors", recording):
        yield seen


@pytest.mark.parametrize(
    "cover, k_max, res",
    [
        (dim2_cover(4.0), 2, dim2_resolution()),
        (torus_cover(2, 1.0), 3, torus_resolution(2, 1.0, 3)),
        (torus_cover(3, 1.5), 4, torus_resolution(3, 1.5, 4)),
    ],
    ids=["dim2", "torus-n2", "torus-n3"],
)
def test_cleared_table_divisors_match_the_full_differentials(cover, k_max, res):
    nerve = build_nerve(cover, k_max, res)
    with _recorded_divisors() as seen:
        table = cohomology(nerve, range(k_max))
    # d^{-1}, d^0, ..., d^{k_max - 1}, each eliminated once, in rising degree
    assert seen == [smith_divisors(delta_rows(nerve, k)) for k in range(-1, k_max)]
    assert table == [cohomology(nerve, k) for k in range(k_max)]
    z2 = cohomology(nerve, range(1, k_max), ring="Z2")
    assert z2 == [cohomology(nerve, k, ring="Z2") for k in range(1, k_max)]


def test_cohomology_builds_each_differential_without_the_cleared_columns():
    # d^k is read off the face tables with the pivot rows of d^{k-1} left
    # out, so no row of it that is eliminated touches one
    nerve = build_nerve(torus_cover(3, 1.5), 4, torus_resolution(3, 1.5, 4))
    touched, pivot_rows = [], []

    def recording(rows):
        touched.append(set().union(*rows))
        out = snf_pivot_divisors(rows)
        pivot_rows.append(out[1])
        return out

    with patch.object(nerve_mod, "pivot_divisors", recording):
        cohomology(nerve, range(4))
    # d^{-1}, d^0, ..., d^3: d^{-1} has no pivot rows to clear
    for k in range(2, 5):
        assert pivot_rows[k - 1] and touched[k] and not touched[k] & pivot_rows[k - 1]
        full = delta_rows(nerve, k - 1)
        cleared = delta_rows(nerve, k - 1, pivot_rows[k - 1])
        assert cleared == [{c: v for c, v in row.items() if c not in pivot_rows[k - 1]} for row in full]


def _unimodular(size: int, ops: list[tuple[int, int, int]]):
    """U and U^-1 from row operations row_i += c row_j on the identity."""
    U, Uinv = np.eye(size, dtype=np.int64), np.eye(size, dtype=np.int64)
    for i, j, c in ops:
        if size > 1 and i % size != j % size:
            i, j = i % size, j % size
            U[i] += c * U[j]
            Uinv[:, j] -= c * Uinv[:, i]
    return U, Uinv


@st.composite
def _cochain_complexes(draw):
    """d^0, d^1, d^2 with d^{k+1} d^k = 0: a normal form, in which d^k maps
    the coordinates after im d^{k-1} diagonally (torsion factors included)
    onto the first coordinates of C^{k+1}, conjugated by small unimodular
    changes of basis."""
    dims = draw(st.lists(st.integers(1, 4), min_size=4, max_size=4))
    ops = st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([-1, 1]))
    bases = [_unimodular(m, draw(st.lists(ops, max_size=4))) for m in dims]
    mats, prev_rank = [], 0
    for k in range(3):
        rank = draw(st.integers(0, min(dims[k] - prev_rank, dims[k + 1])))
        D = np.zeros((dims[k + 1], dims[k]), dtype=np.int64)
        for i in range(rank):
            D[i, prev_rank + i] = draw(st.sampled_from([1, 1, 2, 3, 4, 6]))
        mats.append(bases[k + 1][0] @ D @ bases[k][1])
        prev_rank = rank
    return dims, mats


@settings(max_examples=80, deadline=timedelta(seconds=5))
@given(_cochain_complexes())
def test_cleared_table_matches_sympy_on_random_complexes(complex_):
    dims, mats = complex_
    for k in range(2):
        assert not (mats[k + 1] @ mats[k]).any()
    nerve = SimpleNamespace(k_max=3, basis=lambda k: range(dims[k]))

    def rows(_nerve, k, drop=frozenset()):
        if k < 0:
            return [{} for _ in range(dims[0])]
        return [{j: int(v) for j, v in enumerate(row) if v and j not in drop} for row in mats[k]]

    full = [()] + [
        tuple(int(d) for d in invariant_factors(Matrix(M.tolist()), domain=ZZ) if d)
        for M in mats
    ]
    # the fake nerve has no face tables: its guard is the product of its rows
    with patch.object(nerve_mod, "delta_rows", rows), patch.object(
        nerve_mod, "_check_dd_zero", lambda nv, k: product_guard(nv, k, rows)
    ), _recorded_divisors() as seen:
        table = cohomology(nerve, range(3))
        z2 = cohomology(nerve, range(3), ring="Z2")
    assert seen == full + full
    for k, h in enumerate(table):
        assert h.free_rank == dims[k] - len(full[k + 1]) - len(full[k])
        assert h.torsion == tuple(d for d in full[k] if d > 1)
        odd = sum(1 for d in full[k] + full[k + 1] if d % 2)
        assert z2[k].free_rank == dims[k] - odd


@pytest.mark.parametrize("broken_k", [0, 2], ids=["d0", "top"])
def test_rank_table_guards_every_degree(broken_k, monkeypatch):
    # torus_rank_table(2) has k_max 3: its top differential is d^2, whose rows
    # are the face table of degree 3; the first row of d^broken_k gets the
    # faces on its first two facets swapped
    real = scenarios_mod.build_nerve

    def broken(*args):
        return _mutated(real(*args), broken_k + 1, 0, _swapped(0, 1))

    monkeypatch.setattr(scenarios_mod, "build_nerve", broken)
    with pytest.raises(VerificationError, match="not zero"):
        torus_rank_table(2)


def _guards_agree(nerve) -> bool:
    """The verdict of the face-identity guard over every degree of the rank
    table, asserted equal to the product's."""
    verdicts = []
    for guard in (nerve_mod._check_dd_zero, product_guard):
        try:
            for k in range(nerve.k_max):
                guard(nerve, k)
            verdicts.append(True)
        except VerificationError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1]
    return verdicts[0]


def _one_set_ball_nerve(k_max):
    cover, res = one_set_cover(ball_region((0.0,) * 4, 1.0), CPoint((0.0,) * 4))
    return build_nerve(cover, k_max, res)


# every nerve a pipeline runs cohomology on, and the sets of their subnerves
_PIPELINE_NERVES = {
    "dim2": (lambda: build_nerve(dim2_cover(4.0), 2, dim2_resolution()), [[0], [1]]),
    "torus-n2": (lambda: build_nerve(torus_cover(2, 1.0), 3, torus_resolution(2, 1.0, 3)), [[0, 1, 3]]),
    "torus-n3": (
        lambda: build_nerve(torus_cover(3, 1.5), 4, torus_resolution(3, 1.5, 4)),
        [[0, 1, 2, 4, 7], [1, 2, 5, 6]],
    ),
    "four-set-n3": (
        lambda: build_nerve(torus_cover(3, 1.5, 2), 3, torus_resolution(3, 1.5, 3, 2)),
        [[0, 1, 3]],
    ),
    "glued-n2": (
        lambda: build_nerve(_glued_cover(2, 1.0, 0.5), 3, glued_resolution(2, 1.0, 0.5, 3)),
        [[0, 1, 2, 3], [0, 1, 4]],
    ),
    "one-set": (lambda: _one_set_ball_nerve(3), []),
}


@pytest.mark.parametrize("name", sorted(_PIPELINE_NERVES))
def test_dd_guard_agrees_with_the_product(name):
    build, subsets = _PIPELINE_NERVES[name]
    base = build()
    for nerve in [base] + [base.subnerve(keep) for keep in subsets]:
        assert _guards_agree(nerve)
        # rows with faces on two adjacent facets swapped, or one face sent to
        # another component of its facet, in the first, middle and last row
        # of every table: refused when the row is a face of a row above it,
        # and otherwise for a swap in a row with three or more faces, and for
        # a move to a component with other faces
        for k, cols in nerve.face_tables.items():
            rows = list(zip(*cols))
            lower = list(zip(*nerve.face_tables[k - 1])) if k - 1 in nerve.face_tables else None
            above = {c for col in nerve.face_tables.get(k + 1, ()) for c in col}
            for r in sorted({0, len(rows) // 2, len(rows) - 1} if rows else ()):
                for m in range(k):
                    refused = not _guards_agree(_mutated(nerve, k, r, _swapped(m, m + 1)))
                    assert refused == (r in above or k >= 2)
                for m in range(k + 1):
                    facet, _ = nerve.basis(k - 1)[rows[r][m]]
                    if len(nerve.components(facet)) > 1:
                        moved = _mutated(nerve, k, r, _moved(nerve, k, m))
                        col = moved.face_tables[k][m][r]
                        refused = not _guards_agree(moved)
                        faces_differ = lower is not None and lower[col] != lower[rows[r][m]]
                        assert refused == (r in above or faces_differ)


def test_dd_guard_refuses_what_the_product_cannot_see(torus_nerve):
    # faces swapped between facets 0 and 2 keep their signs, so the row of
    # d^2 and the product are unchanged; the face identities fail
    quad = torus_nerve.offset((0, 1, 2, 3))
    swapped = _mutated(torus_nerve, 3, quad, _swapped(0, 2))
    assert delta_rows(swapped, 2) == delta_rows(torus_nerve, 2)
    product_guard(swapped, 2)
    with pytest.raises(VerificationError, match="d\\^2 d\\^1 is not zero"):
        cohomology(swapped, 2)


def test_dd_guard_refuses_a_row_that_repeats_a_face():
    # an edge with one face twice, under a triangle with one face thrice: the
    # face identities hold, but d^0 holds one entry for the edge, not two,
    # and the product is not zero
    nerve = ResolvedNerve(None, 2, {}, {1: [(0,), (0,)], 2: [(0,), (0,), (0,)]}, {})
    with pytest.raises(VerificationError, match="not zero"):
        product_guard(nerve, 1)
    with pytest.raises(VerificationError, match="a row of d\\^0 repeats a face"):
        nerve_mod._check_dd_zero(nerve, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_rank_table_builds_and_eliminates_each_differential_once(n, monkeypatch):
    counts = {"eliminate": 0, "delta_rows": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(snf_mod, "_eliminate", counted("eliminate", snf_mod._eliminate))
    monkeypatch.setattr(nerve_mod, "delta_rows", counted("delta_rows", delta_rows))
    rows = torus_rank_table(n)
    top = n  # k_max = n + 1, so the table runs H^0 .. H^n
    assert [r["rank"] for r in rows][: n + 1] == [math.comb(n, k) for k in range(n + 1)]
    assert counts == {"eliminate": top + 2, "delta_rows": top + 2}


def test_cohomology_rejects_bad_degree_ranges(torus_nerve):
    for bad in (range(0), range(0, 3, 2)):
        with pytest.raises(ValueError, match="range of degrees"):
            cohomology(torus_nerve, bad)
    with pytest.raises(ValueError, match="too small"):
        cohomology(torus_nerve, range(4))


def test_torus_resolution_shares_its_representatives():
    res = torus_resolution(3, 1.5, 4)
    assert len({id(rep) for p in res.patches.values() for rep in p.reps}) == 4**3
    sliced = torus_resolution(8, 4.0, 3, 2)
    assert len({id(rep) for p in sliced.patches.values() for rep in p.reps}) <= 16
    # one patch at a time, as before the sharing: every point its own object
    letters = sector_letters(3)
    unshared = Resolution({s: _torus_patch(s, letters, 3) for s in res.patches})
    cover = torus_cover(3, 1.5)
    shared_nerve = build_nerve(cover, 4, res)
    unshared_nerve = build_nerve(cover, 4, unshared)
    assert shared_nerve.simplices == unshared_nerve.simplices
    assert _faces(shared_nerve) == _faces(unshared_nerve)
