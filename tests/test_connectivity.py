"""The connectivity check of the tube pipeline: one log-moduli scan for every n.

The check labels the log-moduli image of Omega minus the shell around the
tube's boundary and places two witnesses of U_p, one in each component.  Its
component count is compared with a direct lattice scan of Omega minus the
shell in C^2, and a U_p that misses one component must fail it.
"""

import math

import pytest

from cechcert import covers
from cechcert.covers import omega_minus_shell
from cechcert.errors import ResourceError
from cechcert.geometry import ball_region, grid_components, log_moduli_image
from cechcert.scenarios import SAFETY_CONNECT, ScenarioConfig, connectivity_check

_BUDGET = ScenarioConfig().budget_nodes


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"n{n}")
@pytest.mark.parametrize("share", [0.1, 0.5, 0.9], ids=lambda s: f"eps{s}n")
def test_connectivity_sweep(n, share):
    eps = share * n
    if (n, share) == (4, 0.9):
        # the thin shell near eps = n needs a finer lattice than 10^7 nodes allow
        with pytest.raises(ResourceError, match=r"lattice step [\d.]+ .* width is [\d.]+"):
            connectivity_check(n, eps, SAFETY_CONNECT, _BUDGET)
        return
    ok, details = connectivity_check(n, eps, SAFETY_CONNECT, _BUDGET)
    assert ok
    image = details["log_moduli_image"]
    assert image["component_count"] == 2
    assert image["node_count"] <= _BUDGET
    assert details["step"] < details["shell_width"]
    assert 0 < details["delta"] < eps
    assert sorted(w["label"] for w in details["witnesses"]) == [1, 2]
    assert all(w["in_up_and_omega_minus_shell"] for w in details["witnesses"])
    inner, outer = (w["rho"] for w in details["witnesses"])
    assert inner < eps - details["delta"] and outer > eps + details["delta"]


@pytest.mark.parametrize("eps, delta, expected", [(1.0, 0.7, 2), (0.5, 0.6, 1)])
def test_log_image_count_matches_the_scan_in_c2(eps, delta, expected):
    # with delta >= eps nothing is left inside the shell, so one component
    shell = omega_minus_shell(2, eps, delta)
    direct = grid_components(shell, 0.35, 10_000_000)
    image = log_moduli_image(shell, -(math.sqrt(eps + delta) + 0.5), math.log(shell.bbox[0, 1]))
    labelled = grid_components(image, 0.02, 100_000)
    assert labelled.n_components == direct.n_components == expected


def test_up_missing_the_inner_piece_fails(monkeypatch):
    ok, details = connectivity_check(2, 1.0, SAFETY_CONNECT, 100_000)
    assert ok
    outer = details["witnesses"][1]["point"]
    # a small ball around the outer witness stays off the tube's interior
    monkeypatch.setattr(covers, "up_ball", lambda n, eps, safety: ball_region(outer, 0.01))
    ok, details = connectivity_check(2, 1.0, SAFETY_CONNECT, 100_000)
    assert not ok
    assert details["log_moduli_image"]["component_count"] == 2
    assert [w["in_up_and_omega_minus_shell"] for w in details["witnesses"]] == [False, True]

