"""The connectivity check of the tube pipeline: one inequality for every n.

Omega minus the shell around the tube's boundary has two components when the
shell's outer log-moduli radius sqrt(eps + delta) is below
log(R / sqrt(n)) = sqrt(eps) + log 2, and the check places two witnesses of
U_p, one in each.  A lattice labelling of the log-moduli image
(scipy.ndimage.label) is the independent oracle for n = 2 and 3, and
configurations that break the inequality or let U_p miss a piece must fail.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from cechcert import covers
from cechcert.covers import omega_minus_shell
from cechcert.geometry import ball_region, grid_components
from cechcert.scenarios import SAFETY_CONNECT, connectivity_check


def _log_image_labels(n, eps, delta, step):
    """(labels, count, origin) of the lattice labelling of the log-moduli image
    of Omega minus the shell, {x : sum_j e^{2 x_j} < R^2, |x|^2 outside
    [eps - delta, eps + delta]}, on the box [-(sqrt(eps + delta) + 1/2), log R]^n."""
    radius = covers.omega_radius(n, eps)
    lo = -(math.sqrt(eps + delta) + 0.5)
    axis = np.arange(lo, math.log(radius) + step / 2, step)
    x = np.stack(np.meshgrid(*[axis] * n, indexing="ij"))
    r2 = np.sum(x * x, axis=0)
    mask = (np.sum(np.exp(2.0 * x), axis=0) < radius**2) & ((r2 < eps - delta) | (r2 > eps + delta))
    labels, count = ndimage.label(mask)
    return labels, count, lo


@pytest.mark.parametrize("n", range(2, 9), ids=lambda n: f"n{n}")
@pytest.mark.parametrize("share", [0.01, 0.1, 0.5, 0.9, 0.99], ids=lambda s: f"eps{s}n")
def test_connectivity_sweep(n, share):
    eps = share * n
    ok, details = connectivity_check(n, eps, SAFETY_CONNECT)
    assert ok
    delta = details["delta"]
    assert 0 < delta < eps
    r_out, r_d = details["shell_outer_log_radius"], details["omega_log_ball_radius"]
    assert r_out == math.sqrt(eps + delta)
    assert r_d == pytest.approx(math.sqrt(eps) + math.log(2.0))
    assert r_d - r_out > 0.5
    assert all(w["in_up_and_omega_minus_shell"] for w in details["witnesses"])
    inner, outer = (w["rho"] for w in details["witnesses"])
    assert inner < eps - delta and outer > eps + delta


@pytest.mark.parametrize(
    "n, share", [(2, 0.1), (2, 0.5), (2, 0.9), (3, 0.1), (3, 0.5)], ids=lambda v: str(v)
)
def test_lattice_oracle_puts_the_witnesses_on_two_labels(n, share):
    eps = share * n
    ok, details = connectivity_check(n, eps, SAFETY_CONNECT)
    delta = details["delta"]
    # axis-adjacent nodes closer than the shell's log-radius width cannot
    # join its two sides
    step = (math.sqrt(eps + delta) - math.sqrt(eps - delta)) / 3.0
    labels, count, lo = _log_image_labels(n, eps, delta, step)
    assert ok and count == 2
    found = set()
    for w in details["witnesses"]:
        t = math.log(w["point"][0])  # the witnesses lie on the diagonal ray
        found.add(int(labels[(int(round((t - lo) / step)),) * n]))
    assert found == {1, 2}


@pytest.mark.parametrize("eps, delta, expected", [(1.0, 0.7, 2), (0.5, 0.6, 1)])
def test_log_image_count_matches_the_scan_in_c2(eps, delta, expected):
    # with delta >= eps nothing is left inside the shell, so one component
    shell = omega_minus_shell(2, eps, delta)
    direct = grid_components(shell, 0.35, 10_000_000)
    _, count, _ = _log_image_labels(2, eps, delta, 0.02)
    assert count == direct.n_components == expected


def test_omega_too_small_for_the_inequality_fails(monkeypatch):
    radius = covers.omega_radius
    # log(R / sqrt(n)) = sqrt(eps) + log 1.05, below the shell's outer log-radius
    monkeypatch.setattr(covers, "omega_radius", lambda n, eps: radius(n, eps) * 1.05 / 2.0)
    ok, details = connectivity_check(2, 1.0, SAFETY_CONNECT)
    assert not ok
    assert details["omega_log_ball_radius"] < details["shell_outer_log_radius"]
    # the witnesses still lie in U_p and Omega minus the shell: the inequality
    # alone fails the check
    assert all(w["in_up_and_omega_minus_shell"] for w in details["witnesses"])


def test_up_missing_the_inner_piece_fails(monkeypatch):
    ok, details = connectivity_check(2, 1.0, SAFETY_CONNECT)
    assert ok
    outer = details["witnesses"][1]["point"]
    # a small ball around the outer witness stays off the tube's interior
    monkeypatch.setattr(covers, "up_ball", lambda n, eps, safety: ball_region(outer, 0.01))
    ok, details = connectivity_check(2, 1.0, SAFETY_CONNECT)
    assert not ok
    assert details["shell_outer_log_radius"] < details["omega_log_ball_radius"]
    assert [w["in_up_and_omega_minus_shell"] for w in details["witnesses"]] == [False, True]
