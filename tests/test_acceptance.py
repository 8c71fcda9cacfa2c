"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Criteria 1-5, 7 and 8 measure through the check functions of
``serrin.battery``, the ones ``serrin verify`` runs, with their own samples
and bounds.  Each test holds its measurements to its bounds through
``battery.gate`` and prints a single PASS/FAIL line (run pytest with ``-s``
to see them as they complete).
"""

import numpy as np
import pytest

from serrin.battery import (bifurcation_roots, branch, certificate, eigen_identity, gate,
                            linearization_fd, radial_reference, riccati_margins)
from serrin.cli import main as cli_main
from serrin.errors import AnalysisError
from serrin.geometry import Axis, ModeIndex
from serrin.modes import chebyshev_grid
from serrin.spectrum import sigma

XI, ETA = Axis.XI, Axis.ETA


def _accept(num, *checks):
    """Gate each (bounds, measured) pair; one PASS/FAIL line for them all."""
    try:
        for bounds, measured in checks:
            gate(measured, bounds)
    except AnalysisError as exc:
        print(f"ACCEPTANCE {num}: FAIL - {exc}; measured {exc.details}")
        raise
    print(f"ACCEPTANCE {num}: PASS - " + "; ".join(str(measured) for _, measured in checks))


def test_criterion_1_radial_exactness():
    """Radial solves at 64x64 reproduce the closed form in < 1 s each."""
    _accept(1, (dict(u_error=("<", 1e-5), flux_variance=("<", 1e-10), solve_s=("<", 1.0)),
                radial_reference(XI, lams=np.linspace(0.06, 1.5, 20), resolution=(64, 64))))


def test_criterion_2_eigenfunction_identity():
    """apply_L(cos(n.)) = sigma_n cos(n.) with leakage < 1e-8, both axes."""
    _accept(2, *((dict(leakage=("<", 1e-8)),
                  eigen_identity(axis, lams=np.linspace(0.15, 1.35, 10), modes=range(9)))
                 for axis in (XI, ETA)))


def test_criterion_3_linearization_vs_nonlinear():
    """Richardson-extrapolated (H(l+hw)-H(l-hw))/2h matches apply_L, 1e-4 rel."""
    _accept(3, *((dict(relative_deviation=("<", 1e-4)), linearization_fd(
        axis, lams=(0.4, 0.7, 1.0), steps=(1e-2, 1e-3, 1e-4), resolution=(64, 64)))
                 for axis in (XI, ETA)))


def test_criterion_4_riccati_bounds():
    """Two-sided comparison bounds on the 400-node grid, n = 2..8; the xi n = 2
    curve attains its lower bound, so that margin is held to rounding accuracy."""
    bounds = dict(upper_margin=(">", 0.0), lower_margin=(">", 0.0), equality_margin=(">", -1e-9))
    _accept(4, *((bounds, riccati_margins(axis, modes=range(2, 9), grid=chebyshev_grid(400)))
                 for axis in (XI, ETA)))


def test_criterion_5_bifurcation_points():
    """Roots for n = 2..8: residual, location, ordering, slope cross-check."""
    bounds = dict(residual=("<", 1e-10), slope_error=("<", 1e-5), located=("==", True),
                  slope_signs=("==", True), ordered=("==", True))
    _accept(5, *((bounds, bifurcation_roots(axis, modes=range(2, 9))) for axis in (XI, ETA)))


def test_criterion_6_asymptotic_rates():
    """Near-wall rates: xi ratio within 5%, eta curves below -1e3."""
    lam = np.pi / 2 - 1e-3
    ratios = [sigma(ModeIndex(XI, n), lam) * 2 * np.cos(lam) ** 2 / (n - 1) for n in (2, 3, 4)]
    eta_vals = [sigma(ModeIndex(ETA, n), lam) for n in (1, 2)]
    _accept(6, (dict(xi_ratio_min=(">=", 0.95), xi_ratio_max=("<=", 1.05), eta_max=("<", -1e3)),
                {"xi_ratio_min": float(np.min(ratios)), "xi_ratio_max": float(np.max(ratios)),
                 "eta_max": float(np.max(eta_vals))}))


def test_criterion_7_cr_certificates():
    """Bifurcation hypotheses certified for (xi,2), (xi,3), (eta,2)."""
    bounds = dict(passed=("==", True), spectral_gap=(">", 1e-2), slope_sign=("==", True))
    _accept(7, *((bounds, certificate(axis, j=j, truncation=16, resolution=(64, 64)))
                 for axis, j in ((XI, 2), (XI, 3), (ETA, 2))))


def test_criterion_8_branch_existence():
    """Branches at 64x64: xi j=2 fully certified, eta j=2 fills the sphere."""
    xi, eta = (branch(axis, j=2, s_max=0.02, n_steps=10, truncation=16, resolution=(64, 64))
               for axis in (XI, ETA))
    completed = dict(termination=("==", "completed"))
    _accept(8, (dict(completed, defect=("<", 1e-6), orthogonality=("<", 1e-10),
                     divergence_gap=("<", 1e-6), amplitude=(">", 0.01)), xi),
            (dict(completed, volume_fraction=(">", 0.7)), eta),
            (dict(seconds=("<", 600.0)), {"seconds": xi["seconds"] + eta["seconds"]}))


@pytest.mark.parametrize("inject", ["sigma-sign", "riccati-init", "axis-condition"])
def test_criterion_9_mutation_sanity(inject):
    """The verify battery fails under each deliberate defect."""
    _accept(9, (dict(exit_code=("==", 1)),
                {"exit_code": cli_main(["verify", "--axis", "both", "--inject", inject])}))
