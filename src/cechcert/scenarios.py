"""End-to-end certificate pipelines for the two counterexample constructions.

run_dim2 reproduces the slab construction: a two-set cover whose overlap has
two components carries an integer 1-cocycle with no primitive; its half-scale
exponential push is a line bundle with +-1 transitions that admits no locally
constant trivialization, and the data transports through the exponential chart
onto a tube around the unit torus.

run_dimn reproduces the tube construction in C^n: analytic certificates for
the tube (boundedness, Levi positivity and radial contraction, in closed form
since rho = |x|^2 in the log-moduli x_j = log|z_j|; Hessian definiteness at
the distinguished boundary point and on a ball around it, where the tube is
convex; a boundary point at eps = n with no definite block; and a segment
leaving the tube), all exact, so that no seed changes them; the connectivity
of the ball minus the thickened compact (for every n, one inequality between
log-moduli radii plus two witnesses of the hole at p; see
connectivity_check), the clutching bundle on the sector cover with a
nonvanishing first Chern cocycle, and the gluing with the trivial bundle on
the outside set, whose result still carries a nonvanishing class while the
one-set cover of the ball carries none.

At every n the clutching bundle lives on the four sets pi^{-1}(S_ab) & G_eps,
pi(z) = (z_1, z_2), which iota(w) = (w_1, w_2, 1, ..., 1) pulls back, with the
bundle, to the n = 2 sector cover (checked exactly by slice_checks).  That
cover is good (Leray; Bott-Tu, Differential Forms in Algebraic Topology, 1982,
section 8), so its Chern class is nonzero at every n by naturality; iota(G^2)
misses U_p, so the same holds for the glued bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import covers as cv
from .bundles import (
    chern_cocycle,
    exp_sequence_push,
    flat_class_test,
    glue,
    pullback,
    restrict_to_sets,
    validate_cocycle,
)
from .errors import DomainError, ResolutionError, ResourceError, SamplingError
from .geometry import (
    CPoint,
    Region,
    grid_components,  # unused; perfbench/test_perfbench.py reads scenarios.grid_components
    hessian_block_det,
    hessian_block_trace,
    hessian_fd_residual,
    levi_form,
    rho,
    up_radius,
)
from .hexpr import Const, Coord, IntPower, MatExpr, Product, Sum, as_laurent, laurent_add
from .nerve import Cover, build_nerve, check_cover, cohomology, is_coboundary
from .bundles import BundleData, BundleIso, trivial_bundle
from .report import CertificateReport

__all__ = [
    "ScenarioConfig",
    "run_dim2",
    "run_dimn",
    "connectivity_check",
    "slice_checks",
    "torus_rank_table",
    "hessian_scan_rows",
]


# The ScenarioConfig fields each pipeline reads.  Its report's config echoes
# exactly these, and its command takes them as flags (cli).
DIM2_FIELDS = ("r", "samples", "seed", "tol_cocycle")
# run_dimn draws no random numbers, so its checks are the same for every
# seed; its config still echoes seed, which perfbench's report oracle
# (workloads.check_report) reads back
DIMN_FIELDS = ("n", "epsilon", "seed", "safety", "tol_cocycle", "run_connectivity")

SAFETY_CONNECT = 0.9  # U_p of the connectivity check; sets its delta
FD_STEP = 1e-4  # finite-difference step of the Hessian cross-check at p
DIMN_KMAX = 3  # top dimension of the sector nerve of the clutching bundle
# the largest n CI runs; a fresh `dimn --n 64` takes about 0.3 s on a
# 2-vCPU Xeon
MAX_DIMN_N = 64
# sum over s <= k_max + 1 of C(2^n, s): cohomology-torus at n = 4 has 14,892
# simplices (k_max 5) and at n = 5 would have 4,514,872
MAX_NERVE_SIMPLICES = 100_000


@dataclass
class ScenarioConfig:
    """Knobs for the certificate pipelines; each report echoes the ones its
    pipeline reads."""

    n: int = 2
    epsilon: Optional[float] = None  # default: n/2 for the tube pipeline
    r: float = 4.0
    samples: int = 2000
    seed: int = 0
    safety: float = 0.5
    tol_cocycle: float = 1e-9
    run_connectivity: bool = True

    def __post_init__(self) -> None:
        for name in ("epsilon", "r", "safety", "tol_cocycle"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("samples", "r"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.tol_cocycle >= 0:
            raise ValueError(f"tol_cocycle must be non-negative, got {self.tol_cocycle}")

    def eps(self) -> float:
        return self.n / 2.0 if self.epsilon is None else self.epsilon

    def to_jsonable(self, fields: tuple[str, ...]) -> dict:
        return {f: self.eps() if f == "epsilon" else getattr(self, f) for f in fields}


# ---------------------------------------------------------------------------
# Slab pipeline


def run_dim2(cfg: ScenarioConfig) -> CertificateReport:
    rep = CertificateReport("dim2", cfg.to_jsonable(DIM2_FIELDS))
    rng = np.random.default_rng(cfg.seed)

    # (1) cover of the slab minus the totally real plane
    cover = cv.dim2_cover(cfg.r)
    res = cv.dim2_resolution()
    nerve = build_nerve(cover, 2, res)
    try:
        check_cover(cover, rng, samples=min(cfg.samples, 500))
        cover_ok = True
    except ResolutionError:
        cover_ok = False
    n_overlap = len(nerve.components((0, 1)))
    rep.add(
        "overlap-two-components",
        cover_ok and n_overlap == 2,
        {"components": n_overlap},
        "two-set cover; the overlap splits by the sign of y1",
    )

    # (2) H^1 = Z with the (0, 1) cocycle as a non-primitive class
    h1 = cohomology(nerve, 1, "Z")
    c = cv.dim2_generator_cochain()
    verdict = is_coboundary(nerve, c)
    rep.add(
        "h1-rank-and-generator",
        h1.free_rank == 1 and not h1.torsion and not verdict.yes,
        {
            "h1_rank": h1.free_rank,
            "torsion": list(h1.torsion),
            "cocycle": c.to_jsonable(),
            "coboundary": verdict.to_jsonable(),
        },
        "rank one, no torsion, and the overlap cocycle has no primitive",
    )

    # (3) exponential push at half scale: transitions (1, -1), no constant
    # trivialization
    bundle = exp_sequence_push(nerve, c)
    want = bundle.edge_matrix(0, 1, 0) == MatExpr(((Const(1),),)) and bundle.edge_matrix(
        0, 1, 1
    ) == MatExpr(((Const(-1),),))
    flat = flat_class_test(bundle)
    expected = want and not flat.trivializable
    rep.add(
        "flat-obstruction",
        expected,
        {
            "transitions_expected": want,
            "flat": flat.to_jsonable(),
        },
        "half-scale push gives (+1, -1); the sign system is unsolvable",
    )

    # (4) periodicity of the transition data under 2 pi shifts of x: each
    # transition is a constant (a normal form without a coordinate), so a
    # shifted pair has equal values when it stays on one component
    forms = [as_laurent(bundle.edge_matrix(0, 1, ci).entries[0][0]) for ci in range(n_overlap)]
    period_ok = all(set(f) <= {()} for f in forms)
    checked = 0
    for ci in range(n_overlap):
        pts = [nerve.components((0, 1))[ci]]
        region = cover.intersection((0, 1))
        pts.extend(CPoint(tuple(q)) for q in region.sample(50, rng))
        for p in pts:
            for k1, k2 in ((1, 0), (0, 1), (-1, 1)):
                shifted = CPoint(
                    (
                        p.xy[0] + 2 * math.pi * k1,
                        p.xy[1],
                        p.xy[2] + 2 * math.pi * k2,
                        p.xy[3],
                    )
                )
                if not region.contains(shifted):
                    continue
                checked += 1
                ci_p = nerve.locate((0, 1), p)
                ci_s = nerve.locate((0, 1), shifted)
                if ci_p != ci_s:
                    period_ok = False
    if checked == 0:
        raise SamplingError(
            f"no 2 pi-shifted pair of overlap points lies in D_r for r = {cfg.r}; "
            "the periodicity check needs r > pi"
        )
    rep.add(
        "periodicity",
        period_ok,
        {"pairs_checked": checked},
        "transition values are invariant under 2 pi shifts of x1, x2",
    )

    # (5) transport to the tube through the exponential chart
    tube_cover = cv.tube_cover_dim2(1.0)
    tube_res = cv.tube_resolution_dim2()
    tube_nerve = build_nerve(tube_cover, 2, tube_res)
    tube_bundle = cv.tube_bundle_dim2(tube_cover, tube_nerve)
    coc = validate_cocycle(tube_bundle, tol=cfg.tol_cocycle)
    chart = cv.exp_chart()
    pre_sets = []
    for name, reg in cover.sets:
        pre_sets.append((name, reg.intersect(chart.domain, name=name)))
    pre_cover = Cover(cover.ambient.intersect(chart.domain, name="preimage"), pre_sets)
    pulled = pullback(tube_bundle, chart, pre_cover, res, k_max=2, seed=cfg.seed)
    pull_match = pulled.edge_matrix(0, 1, 0) == MatExpr(((Const(1),),)) and pulled.edge_matrix(
        0, 1, 1
    ) == MatExpr(((Const(-1),),))
    rep.add(
        "tube-transport",
        coc.passed and pull_match,
        {"cocycle": coc.to_jsonable(), "pullback_matches": pull_match},
        "image bundle validates; pulling back through the chart returns (+1, -1)",
    )

    # (6) the unit torus sits compactly inside the tube: |z_j| = 1 there, so
    # rho = 0 < eps = 1; the tube's constraint is evaluated on the grid of
    # 8th roots of unity in each coordinate
    roots = np.exp(2j * math.pi * np.arange(8) / 8)
    w1, w2 = (w.ravel() for w in np.meshgrid(roots, roots, indexing="ij"))
    torus_pts = np.stack([w1.real, w1.imag, w2.real, w2.imag], axis=1)
    g1 = cv.g_eps_region(2, 1.0)
    in_tube = bool(np.all(g1.mask(torus_pts)))
    max_rho = float(np.max(np.log(np.abs(w1)) ** 2 + np.log(np.abs(w2)) ** 2))
    rep.add(
        "torus-inside-tube",
        in_tube and max_rho < 1e-20,
        {"points": len(torus_pts), "max_rho": max_rho, "margin": 1.0 - max_rho},
        "the torus sits at exhaustion level 0, compactly inside the tube",
    )

    # (7) analytic facts used but not re-proved
    rep.add_trusted(
        "long-exact-sequence",
        "exactness of the connecting sequence between integer classes and unit-valued classes",
    )
    rep.add_trusted(
        "restriction-bijectivity",
        "holomorphic functions on the slab minus the plane all extend across it",
    )
    rep.add_trusted(
        "slab-triviality",
        "every holomorphic line bundle on the full slab is trivial",
    )
    return rep


# ---------------------------------------------------------------------------
# Tube pipeline


def run_dimn(cfg: ScenarioConfig) -> CertificateReport:
    n, eps = cfg.n, cfg.eps()
    rep = CertificateReport("dimn", cfg.to_jsonable(DIMN_FIELDS))
    if n < 2:
        raise DomainError("the tube pipeline needs n >= 2")
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if n > MAX_DIMN_N:
        raise ResourceError(f"n = {n}: the tube pipeline takes n up to {MAX_DIMN_N}")

    # (1) boundedness: on G_eps each |log|z_j|| < sqrt(eps), so |z|^2 stays
    # below n e^{2 sqrt(eps)}, inside the ball Omega
    sup_norm_sq = n * math.exp(2.0 * math.sqrt(eps))
    bound = cv.omega_radius(n, eps) ** 2
    rep.add("tube-bounded", sup_norm_sq < bound, {"sup_norm_sq": sup_norm_sq, "bound": bound})

    # (2) Levi positivity: log|z_j|^2 is pluriharmonic, so the Levi form is
    # diagonal with entries 1/(2|z_j|^2), least where |z_j| is largest on the
    # closed tube: at the boundary point (e^{sqrt(eps)}, 1, ..., 1)
    lower = 1.0 / (2.0 * math.exp(2.0 * math.sqrt(eps)))
    extreme = CPoint.from_complex([math.exp(math.sqrt(eps))] + [1.0] * (n - 1))
    levi_margin = levi_form(extreme, [1.0] + [0.0] * (n - 1)) - lower
    rep.add(
        "levi-lower-bound",
        levi_margin >= -1e-12,
        {"min_margin": levi_margin, "lower_coeff": lower, "extreme_point": list(extreme.xy)},
    )

    # (3) the radial contraction |z|^{-t} z multiplies each x_j = log|z_j| by
    # 1 - t, so rho scales by (1 - t)^2: a polynomial identity in (x, t),
    # checked on Laurent normal forms with x_j = Coord(j) and t = Coord(n)
    shrink = Sum((Const(1), Product((Const(-1), Coord(n)))))
    rho_image = Sum(tuple(IntPower(Product((shrink, Coord(j))), 2) for j in range(n)))
    scaled = Product((IntPower(shrink, 2), Sum(tuple(IntPower(Coord(j), 2) for j in range(n)))))
    image_form = as_laurent(rho_image)
    defect = laurent_add(image_form, as_laurent(scaled), -1)
    rep.add(
        "contraction-identity",
        bool(image_form) and not defect,
        {"identity_terms": len(image_form), "defect_terms": len(defect)},
    )

    # (4) Hessian definiteness at p when eps < n, with finite-difference cross-check
    p = cv.p_point(n, eps)
    if eps < n:
        dets = [hessian_block_det(p.z(j)) for j in range(n)]
        trs = [hessian_block_trace(p.z(j)) for j in range(n)]
        fd = hessian_fd_residual(p, FD_STEP)
        rep.add(
            "hessian-pd-at-p",
            min(dets) > 0 and min(trs) > 0 and fd < 1e-5,
            {"block_dets": dets, "block_traces": trs, "fd_residual": fd},
        )
    else:
        dets = [hessian_block_det(p.z(j)) for j in range(n)]
        rep.add(
            "hessian-pd-at-p",
            False,
            {"block_dets": dets},
            "no definite boundary point exists at this epsilon",
        )

    # (5) negative control at eps = n: a block is definite iff x_j = log|z_j|
    # lies in (0, 1), so a point with every block definite has rho = |x|^2 < n
    # and none lies on rho = n; at the witness |z_j| = e every block degenerates
    witness = CPoint.from_complex([math.e] * n)
    witness_rho = rho(witness)
    worst_det = max(hessian_block_det(witness.z(j)) for j in range(n))
    rep.add(
        "negative-control-eps-n",
        abs(witness_rho - n) <= 1e-12 * n and worst_det <= 1e-12,
        {"witness": list(witness.xy), "witness_rho": witness_rho, "max_block_det": worst_det},
        "at eps = n some squared log-modulus reaches 1, killing a block determinant",
    )

    if eps >= n:
        rep.add(
            "up-ball",
            False,
            {},
            "no ball around p stays in the definiteness window when eps >= n",
        )
        rep.add_trusted(
            "definiteness-threshold",
            "eps < n is necessary and sufficient for a definite Hessian at p",
        )
        return rep

    # (6) U_p: when every |z_j| on the ball lies in (1, e), every Hessian
    # block is definite there, so rho is strictly convex on the ball and
    # G & U_p, a sublevel set of it, is convex
    up = cv.up_ball(n, eps, cfg.safety)
    mid, radius = up.bbox.mean(axis=1), float(up.bbox[0, 1] - up.bbox[0, 0]) / 2.0
    center = mid[0::2] + 1j * mid[1::2]  # U_p's, read off its bbox [c - r, c + r]
    lo, hi = float(np.abs(center).min() - radius), float(np.abs(center).max() + radius)
    rep.add(
        "up-ball",
        1.0 < lo and hi < math.e,
        {"modulus_range": [lo, hi], "definite_window": [1.0, math.e]},
        "Hessian definite on the ball; no convexity violation in the tube piece",
    )
    # the segment between two points of the torus, where rho = 0, through
    # z_1 = 0, where rho = +inf (Region.contains, unlike rho, is total there)
    g = cv.g_eps_region(n, eps)
    ends = [CPoint.from_complex([1.0] * n), CPoint.from_complex([-1.0] + [1.0] * (n - 1))]
    mid = CPoint(tuple((a + b) / 2.0 for a, b in zip(*(e.xy for e in ends))))
    ends_in, mid_in = all(g.contains(e) for e in ends), g.contains(mid)
    rep.add(
        "tube-not-convex",
        ends_in and not mid_in,
        {
            "witness": {"p1": list(ends[0].xy), "p2": list(ends[1].xy), "t": 0.5},
            "ends_in_tube": ends_in,
            "midpoint_in_tube": mid_in,
        },
        "the full tube admits an explicit segment leaving it",
    )

    # (7) connectivity of the ball minus the thickened compact
    if cfg.run_connectivity:
        ok, details = connectivity_check(n, eps, SAFETY_CONNECT)
        rep.add(
            "connectivity",
            ok,
            details,
            "two log-moduli components without the shell; U_p meets both, so one once "
            "the hole at p is open",
        )
    else:
        rep.add_trusted(
            "connectivity",
            "check skipped by configuration; the complement connectivity is taken on faith here",
        )

    # (8) the clutching bundle on the four-set cover, its Chern class, and
    # the slice that carries both back to n = 2
    k_max, d = DIMN_KMAX, 2  # sectored in z_1, z_2 only
    cover = cv.torus_cover(n, eps, d)
    nerve = build_nerve(cover, k_max, cv.torus_resolution(n, eps, k_max, d))
    lnt = cv.lnt_bundle(cover, nerve)
    coc = validate_cocycle(lnt, tol=cfg.tol_cocycle)
    ch_verdict = is_coboundary(nerve, chern_cocycle(lnt))
    h2 = cohomology(nerve, 2, "Z")  # H^2 of the 2-torus: the slice nerve is n = 2's
    slice_ok = slice_checks(lnt, eps)
    rep.add(
        "clutching-bundle",
        coc.passed and not ch_verdict.yes and h2.free_rank == 1 and not h2.torsion
        and all(slice_ok.values()),
        {
            "cocycle": coc.to_jsonable(),
            "chern_coboundary": ch_verdict.to_jsonable(),
            "h2_rank": h2.free_rank,
            "h2_expected": 1,
            "h2_torsion": list(h2.torsion),
            "slice": slice_ok,
        },
        "valid cocycle with a Chern class that admits no primitive; cover and bundle "
        "restrict exactly to the n = 2 slice",
    )

    # (9) the overlap with the outside set is a single all-A piece: every
    # point of U_p has Re z_j > re_min > 0, so it is in arc A, and
    # 3 Re z_j^2 > 3 re_min^2 >= im_max^2 > Im z_j^2, so it is in no B arc
    # (x_j < |z_j|/2); glue
    re_min = float(center.real.min() - radius)
    im_max = float(np.abs(center.imag).max() + radius)
    sector_ok = re_min > 0.0
    only_a = sector_ok and 3.0 * re_min**2 >= im_max**2
    omega_prime = cv.omega_prime_region(n, eps, up)
    out_cover, out_res = cv.one_set_cover(omega_prime, cv.outer_rep(n, eps))
    out_nerve = build_nerve(out_cover, 1, out_res)
    triv = trivial_bundle(out_cover, out_nerve, 1)
    iso = BundleIso({(0, 0): {None: MatExpr(((Const(1),),))}})
    glued_res = cv.glued_resolution(n, eps, cfg.safety, k_max, d)
    lcex, iso_rep, coc_rep = glue(lnt, triv, iso, glued_res, k_max=k_max, tol=cfg.tol_cocycle)
    rep.add(
        "overlap-containment-and-glue",
        sector_ok and only_a and iso_rep.passed and coc_rep.passed,
        {
            "overlap_in_base_sector": sector_ok,
            "overlap_only_base_sector": only_a,
            "up_min_real_part": re_min,
            "up_max_abs_imag_part": im_max,
            "iso_validation": iso_rep.to_jsonable(),
            "glued_cocycle": coc_rep.to_jsonable(),
        },
        "the tube piece of the ball at p meets only the base sector; gluing validates",
    )

    # (10) the glued class survives, while the one-set ball cover has none
    cex_verdict = is_coboundary(lcex.nerve, chern_cocycle(lcex))
    omega = cv.omega_region(n, eps)
    o_cover, o_res = cv.one_set_cover(omega, CPoint.from_complex([0.0] * n))
    o_nerve = build_nerve(o_cover, 3, o_res)
    h1o = cohomology(o_nerve, 1, "Z")
    h2o = cohomology(o_nerve, 2, "Z")
    restr = restrict_to_sets(lcex, list(range(len(cover.sets))))
    restr_same = restr.transitions == lnt.transitions
    # iota(G^2_eps) has z_j = 1 for j > 2, at distance sqrt(n - 2) (m - 1) from
    # p, more than the U_p radius; at n = 2 iota is the identity
    gap = float(np.linalg.norm(center[2:] - 1.0))
    rep.add(
        "glued-class-obstruction",
        (not cex_verdict.yes)
        and h1o.free_rank == 0
        and h2o.free_rank == 0
        and restr_same
        and (n == 2 or gap > radius),
        {
            "chern_coboundary": cex_verdict.to_jsonable(),
            "ball_h1_rank": h1o.free_rank,
            "ball_h2_rank": h2o.free_rank,
            "restriction_identical": restr_same,
            "slice_distance_to_p": gap,
            "up_radius": radius,
        },
        "the glued bundle's class has no primitive; the one-set ball cover carries none",
    )

    # (11) analytic facts used but not re-proved
    rep.add_trusted(
        "ball-bundle-triviality",
        "every holomorphic line bundle on the ball is trivial, so a nonvanishing class "
        "on the complement of the compact cannot extend",
    )
    rep.add_trusted(
        "stein-complement",
        "connectedness of the complement is certified here for the thickened compact; "
        "the statement for the compact itself rests on the Stein-compactum argument",
    )
    rep.artifacts["lcex"] = lcex.to_jsonable()
    return rep


def slice_checks(lnt: BundleData, eps: float) -> dict:
    """Exact checks that iota(w) = (w_1, w_2, 1, ..., 1) carries the clutching
    bundle on the four-set cover of G_eps in C^n to the n = 2 one: each set's
    constraint tree is the n = 2 sector's (rho sums over every coordinate, and
    log 1 = 0), every transition's Laurent form uses z_1 and z_2 only, and the
    nerves have the same simplices, with iota of each n = 2 representative
    located to the component of the same index."""
    nerve, pad = lnt.nerve, (1.0, 0.0) * (lnt.cover.ambient.dim2n // 2 - 2)
    base = cv.torus_cover(2, eps)
    base_nerve = build_nerve(base, nerve.k_max, cv.torus_resolution(2, eps, nerve.k_max))
    sets = [r.constraint for _, r in lnt.cover.sets] == [r.constraint for _, r in base.sets]
    entries = [e for t in lnt.transitions.values() for M in t.values() for e in sum(M.entries, ())]
    located = set(base_nerve.simplices) == set(nerve.simplices) and all(
        len(nerve.components(s)) == len(reps) and nerve.locate(s, w) == ci
        for s, reps in base_nerve.simplices.items()
        for ci, w in enumerate(CPoint(rep.xy + pad) for rep in reps)
    )
    return {
        "sets_equal_n2": sets,
        "transitions_in_z1_z2": all(j < 2 for e in entries for m in as_laurent(e) for j, _ in m),
        "representatives_located": located,
    }


def connectivity_check(n: int, eps: float, safety: float) -> tuple[bool, dict]:
    """Connectivity of Omega minus the thickened compact K_delta, for any n.

    Omega and the shell eps - delta <= rho <= eps + delta depend only on the
    moduli |z_j|, so Omega\\shell is a Reinhardt set: its components are those
    of its image in log-moduli space, and points with some z_j = 0 join the
    outer piece (Jarnicki-Pflug, First Steps in Several Complex Variables:
    Reinhardt Domains, 2008).  In coordinates x_j = log|z_j| the image of
    Omega, D = {sum_j e^{2 x_j} < R^2}, is convex and holds 0; as
    sum_j e^{2 x_j} <= n e^{2|x|}, it holds every closed ball about 0 of radius
    below r_D = log(R / sqrt(n)).  The shell's image is r_in <= |x| <= r_out with
    r = sqrt(eps -+ delta).  If r_out < r_D, the inner piece is the ball
    |x| < r_in, and the outer piece is connected: it holds the annulus
    r_out < |x| <= t for any t in (r_out, r_D), connected as n >= 2, and the
    radial segment from any other point x of it to t x / |x| stays in D and
    off the shell.  So Omega\\shell has two components.  Omega\\K_delta is
    (Omega\\shell) | (Omega & U_p), and Omega & U_p is convex, so it is
    connected once two points of Omega & U_p on the diagonal ray through p
    lie one in each piece.

    delta is a third of the largest half-thickness (in rho) of a shell that
    U_p still crosses along that ray, and the witnesses sit at 99% of it.
    """
    m = math.exp(math.sqrt(eps / n))
    reach = up_radius(n, eps, safety) / math.sqrt(n)  # U_p meets the ray for |s - m| < reach
    widest = min(eps - n * math.log(m - reach) ** 2, n * math.log(m + reach) ** 2 - eps)
    delta = widest / 3.0
    r_out = math.sqrt(eps + delta)
    r_d = math.log(cv.omega_radius(n, eps) / math.sqrt(n))
    shell = cv.omega_minus_shell(n, eps, delta)
    up = cv.up_ball(n, eps, safety)
    witnesses = []
    for level in (eps - 0.99 * widest, eps + 0.99 * widest):
        w = CPoint((math.exp(math.sqrt(level / n)), 0.0) * n)
        witnesses.append(
            {
                "point": list(w.xy),
                "rho": rho(w),
                "in_up_and_omega_minus_shell": up.contains(w) and shell.contains(w),
            }
        )
    inner, outer = witnesses
    ok = (
        r_out < r_d
        and all(w["in_up_and_omega_minus_shell"] for w in witnesses)
        and inner["rho"] < eps - delta
        and outer["rho"] > eps + delta
    )
    return ok, {
        "delta": delta,
        "shell_outer_log_radius": r_out,
        "omega_log_ball_radius": r_d,
        "witnesses": witnesses,
        "up_safety": safety,
    }


# ---------------------------------------------------------------------------
# Auxiliary commands


def torus_rank_table(n: int, eps: Optional[float] = None, k_max: Optional[int] = None):
    """Cohomology ranks of the sector cover of the tube, degree by degree."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    eps = n / 2.0 if eps is None else eps
    if not math.isfinite(eps):
        raise ValueError(f"epsilon must be finite, got {eps}")
    k_max = n + 1 if k_max is None else k_max
    # refuse, naming n, before anything is built (2^17 sets alone pass the limit)
    sets = 2 ** min(n, MAX_NERVE_SIMPLICES.bit_length())
    count = sum(math.comb(sets, size) for size in range(1, k_max + 2))
    if count > MAX_NERVE_SIMPLICES:
        raise ResourceError(
            f"n = {n}: the sector nerve has at least {count:,} simplices up to "
            f"dimension {k_max}, over the limit of {MAX_NERVE_SIMPLICES:,}"
        )
    cover = cv.torus_cover(n, eps)
    res = cv.torus_resolution(n, eps, k_max)
    nerve = build_nerve(cover, k_max, res)
    rows = []
    for k in range(k_max):
        h = cohomology(nerve, k, "Z")
        rows.append(
            {
                "k": k,
                "rank": h.free_rank,
                "torsion": list(h.torsion),
                "expected": math.comb(n, k) if k <= n else 0,
            }
        )
    return rows


def hessian_scan_rows(lo: float = 0.5, hi: float = 3.5, count: int = 1000):
    """Sweep of the per-coordinate Hessian block trace and determinant
    (unscaled closed forms) over the modulus range."""
    for name, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
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
