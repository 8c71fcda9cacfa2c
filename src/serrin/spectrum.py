"""Eigenvalue curves of the linearized boundary-flux map and their zeros.

A pure mode cos(n * angle) is an eigenfunction of the linearization of the
Dirichlet-to-Neumann map at a straight tube of radius lam, with eigenvalue

    sigma_n(lam) = tan(lam)/(2 lam) * l'(1) - 1/(2 cos^2 lam),

where l is the radial factor from :mod:`serrin.modes` (so l'(1) = lam f_n
for xi modes and l'(1) = k_n for eta modes).  Each curve is strictly
increasing in n, crosses zero exactly once for n >= 2, and the crossing
lambda_n is where a branch of nontrivial near-tube solutions bifurcates.
The xi roots accumulate at 0 (small tubes), the eta roots at pi/2 (tubes
nearly filling the sphere).
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.optimize import brentq

from .errors import AnalysisError, ConsistencyError, DomainValidationError
from .geometry import HALF_PI, Axis, ModeIndex
from .modes import (DEFAULT_LAUNCH_RADIUS, LAMBDA_MAX, chebyshev_grid,
                    riccati_solution, solve_l)

__all__ = [
    "EigenCurve", "BifurcationPoint", "sigma", "sigma_values", "sigma_ode",
    "eigen_curve", "find_lambda_n", "sigma_prime_closed_form",
    "asymptotics_report", "AsymptoticsReport",
]


def _sigma_from_lprime(lam, l_prime):
    return np.tan(lam) / (2.0 * lam) * l_prime - 0.5 / np.cos(lam) ** 2


def _sigma_and_riccati(mode, lam, rtol):
    """(sigma_n, f_n or k_n) on an array of radii from one Riccati evaluation."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0.0) or np.any(lam >= HALF_PI):
        raise DomainValidationError("lambda must lie in (0, pi/2)")
    if mode.n == 0:
        return -0.5 / np.cos(lam) ** 2, np.zeros_like(lam)
    vals = riccati_solution(mode, rtol=rtol).values(lam)
    if mode.axis is Axis.XI:
        l_prime = lam * vals          # f_n = L'/L, l'(1) = lam f_n
    else:
        l_prime = vals                # k_n = l'(1) directly
    return _sigma_from_lprime(lam, l_prime), vals


def sigma_values(mode, lam, rtol=1e-10):
    """sigma_n on an array of radii, through the cached Riccati sweep."""
    return _sigma_and_riccati(ModeIndex.coerce(mode), lam, rtol)[0]


def sigma(mode, lam, rtol=1e-10):
    """Eigenvalue sigma_n(lam) of the linearized flux map on a pure mode."""
    return float(sigma_values(mode, np.asarray([lam], dtype=float), rtol)[0])


def sigma_ode(mode, lam, rtol=1e-12):
    """Independent route to sigma through the linear mode ODE.

    Used as a cross-check oracle against the Riccati route; the two must
    agree to the integrator tolerances.
    """
    mode = ModeIndex.coerce(mode)
    eps, delta = mode.eps_delta
    ms = solve_l(eps, delta, lam, t_grid=np.asarray([1.0]), rtol=rtol)
    return float(_sigma_from_lprime(float(lam), ms.l_prime_at_1))


@dataclass(frozen=True)
class EigenCurve:
    """One sampled eigenvalue curve lambda -> sigma_n(lambda)."""

    mode: ModeIndex
    lam: np.ndarray
    sigma: np.ndarray
    riccati: np.ndarray   # f_n (xi) or k_n (eta) on the same grid


def eigen_curve(mode, lam_grid=None, rtol=1e-10):
    """Sample sigma_n on a grid (400 Chebyshev nodes by default)."""
    mode = ModeIndex.coerce(mode)
    if lam_grid is None:
        lam_grid = chebyshev_grid(400)
    lam_grid = np.asarray(lam_grid, dtype=float)
    return EigenCurve(mode, lam_grid, *_sigma_and_riccati(mode, lam_grid, rtol))


@dataclass(frozen=True)
class BifurcationPoint:
    """Zero crossing of one eigenvalue curve, with its certificate data."""

    mode: ModeIndex
    lambda_n: float
    sigma_prime: float
    bracket: Tuple[float, float]
    sigma_residual: float
    sign_changes: int


def bifurcation_bracket(mode):
    """Sign-change bracket for lambda_n from the proved curve inequalities.

    sigma_n < 0 on (0, arcsin(1/n)] for xi modes and > 0 on
    (0, arccos(1/n)] for eta modes; the opposite sign is guaranteed at the
    other end (the n = 2 xi root sits exactly at arcsin(1/sqrt(2)), so the
    upper end is padded rather than taken at the closed-form bound).
    """
    mode = ModeIndex.coerce(mode)
    n = mode.n
    if n < 2:
        raise DomainValidationError(f"bifurcation needs a mode with n >= 2, got n={n}")
    if mode.axis is Axis.XI:
        return (np.arcsin(1.0 / n), min(np.arcsin(1.0 / np.sqrt(n)) + 0.02, LAMBDA_MAX))
    return (np.arccos(1.0 / n), LAMBDA_MAX)


def find_lambda_n(mode, tol=1e-12, sweep_rtol=1e-10, scan_points=200):
    """Locate the unique zero lambda_n of sigma_n, n >= 2.

    Bracketed Brent refinement inside the proved interval, followed by a
    Newton polish with the closed-form derivative so the residual
    |sigma_n(lambda_n)| drops well below 1e-10.  Uniqueness is certified by
    a sign scan over ``scan_points`` nodes spanning (0, pi/2); this guards
    against implementation bugs, the mathematical uniqueness being known.
    """
    mode = ModeIndex.coerce(mode)
    lo, hi = bifurcation_bracket(mode)
    f = lambda x: sigma(mode, x, rtol=sweep_rtol)
    flo, fhi = f(lo), f(hi)
    want = 1.0 if mode.axis is Axis.XI else -1.0   # sign of sigma at the upper end
    if not (flo * want < 0.0 < fhi * want):
        raise AnalysisError(
            f"no sign change of sigma in the proved bracket {lo:.6f}..{hi:.6f} "
            f"for {mode}: values {flo:.3e}, {fhi:.3e} (mode-ODE defect?)")
    root = brentq(f, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps)

    for _ in range(3):
        res = f(root)
        slope = _sigma_prime_formula(mode, root)
        if abs(res) < 1e-12 or slope == 0.0:
            break
        root -= res / slope
    res = f(root)

    scan = np.linspace(DEFAULT_LAUNCH_RADIUS, LAMBDA_MAX, scan_points)
    signs = np.sign(sigma_values(mode, scan, rtol=sweep_rtol))
    changes = int(np.count_nonzero(np.diff(signs[signs != 0.0]) != 0.0))
    if changes != 1:
        raise AnalysisError(
            f"uniqueness scan found {changes} sign changes for {mode}")

    return BifurcationPoint(mode, float(root), _sigma_prime_formula(mode, root),
                            (float(lo), float(hi)), float(abs(res)), changes)


def _sigma_prime_formula(mode, lam):
    n, s, c = mode.n, np.sin(lam), np.cos(lam)
    if mode.axis is Axis.XI:
        return (n * n * s * s - 1.0) / (2.0 * c ** 3 * s)
    return (n * n - 1.0 / c ** 2) / (2.0 * s * c)


def sigma_prime_closed_form(point, fd_step=1e-4, check_tol=1e-3):
    """Closed-form slope of sigma_n at its zero, cross-checked numerically.

    The closed form is only valid where sigma_n vanishes; a Richardson
    finite difference of sigma must reproduce it, and a relative mismatch
    beyond ``check_tol`` raises a :class:`ConsistencyError`.
    """
    mode, lam = point.mode, point.lambda_n
    if abs(sigma(mode, lam)) > 1e-8:
        raise DomainValidationError(
            "sigma_prime_closed_form requires a root of sigma_n")
    closed = _sigma_prime_formula(mode, lam)
    fd = _sigma_prime_fd(mode, lam, fd_step)
    if abs(fd - closed) > check_tol * max(abs(closed), 1e-30):
        raise ConsistencyError(
            f"closed-form slope {closed:.8e} disagrees with finite difference "
            f"{fd:.8e} at {mode}, lambda={lam:.8f}")
    return float(closed)


def _sigma_prime_fd(mode, lam, h):
    def central(step):
        return (sigma(mode, lam + step) - sigma(mode, lam - step)) / (2.0 * step)
    d1, d2 = central(h), central(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


@dataclass(frozen=True)
class AsymptoticsReport:
    """Measured asymptotic diagnostics for one mode family."""

    axis: Axis
    near_wall_ratios: dict      # xi: sigma * 2 cos^2/(n-1) at pi/2 - 1e-3
    upper_margin: float         # min over grid of upper bound minus sigma_n/n
    lower_margin: float         # min over grid of sigma_n/n minus lower bound
    lambda_roots: dict          # n -> lambda_n for n = 2..8
    small_lambda_limits: dict   # observed sigma_n near lambda = 0
    checks: dict                # name -> bool


def asymptotics_report(mode_or_axis, n_max=8, rtol=1e-10):
    """Certify the growth and ordering claims of one eigenvalue family.

    For xi modes: the near-wall ratio sigma_n * 2 cos^2(lam)/(n-1) is within
    5% of 1 at lam = pi/2 - 1e-3 for n in {2,3,4}; on the sweep grid
    sigma_n/n <= (3/2) tan/cos for n <= n_max and
    sigma_n/n >= tan^2/2 - 1/(2 n cos^2) for n >= 2; the roots lambda_n
    decrease with lambda_n < arcsin(1/sqrt(n)).  For eta modes:
    sigma_n/n >= 1/2 - 1/(2 n cos^2); sigma_n -> -infinity near the wall
    (checked as sigma_n < -1e3 at pi/2 - 1e-3 for n in {1,2}); the roots
    increase toward pi/2 with lambda_n > arccos(1/n).  Any violated bound
    raises an :class:`AnalysisError`.

    The observed small-lambda limits (-1/2 for every xi mode, (n-1)/2 for
    eta modes) are reported but only their proved signs are enforced.
    """
    axis = mode_or_axis.axis if isinstance(mode_or_axis, ModeIndex) else Axis.coerce(mode_or_axis)
    grid = chebyshev_grid(120, 0.05, 1.3)
    wall = HALF_PI - 1e-3
    checks = {}
    ratios = {}
    limits = {}

    upper_margin = np.inf
    lower_margin = np.inf
    for n in range(1, n_max + 1):
        mode = ModeIndex(axis, n)
        sig = sigma_values(mode, grid, rtol)
        if axis is Axis.XI:
            upper = 1.5 * np.tan(grid) / np.cos(grid)
            upper_margin = min(upper_margin, float(np.min(upper - sig / n)))
            if n >= 2:
                lower = 0.5 * np.tan(grid) ** 2 - 0.5 / (n * np.cos(grid) ** 2)
                lower_margin = min(lower_margin, float(np.min(sig / n - lower)))
        else:
            lower = 0.5 - 0.5 / (n * np.cos(grid) ** 2)
            lower_margin = min(lower_margin, float(np.min(sig / n - lower)))
        limits[n] = float(sigma(mode, 1e-3, rtol))

    # the n=2 xi curve meets its lower bound identically, so that side is
    # checked with an equality allowance instead of a strict margin
    if axis is Axis.XI and upper_margin <= 0.0:
        raise AnalysisError("xi upper growth bound violated on the sweep grid")
    if lower_margin < -1e-9:
        raise AnalysisError(f"{axis.value} lower growth bound violated on the sweep grid")
    checks["upper_bound"] = axis is not Axis.XI or upper_margin > 0.0
    checks["lower_bound"] = lower_margin >= -1e-9

    if axis is Axis.XI:
        for n in (2, 3, 4):
            val = sigma(ModeIndex(axis, n), wall, rtol)
            ratios[n] = float(val * 2.0 * np.cos(wall) ** 2 / (n - 1))
            if not 0.95 <= ratios[n] <= 1.05:
                raise AnalysisError(
                    f"xi near-wall ratio for n={n} is {ratios[n]:.4f}, outside [0.95, 1.05]")
        checks["near_wall_rate"] = True
        signs_ok = all(limits[n] < 0.0 for n in range(1, n_max + 1))
    else:
        for n in (1, 2):
            val = sigma(ModeIndex(axis, n), wall, rtol)
            ratios[n] = float(val)
            if val >= -1e3:
                raise AnalysisError(
                    f"eta near-wall blow-down for n={n} is {val:.3e}, expected < -1e3")
        checks["near_wall_rate"] = True
        signs_ok = all(limits[n] > 0.0 for n in range(2, n_max + 1))
    if not signs_ok:
        raise AnalysisError(f"{axis.value} small-lambda limit has the wrong sign")
    checks["small_lambda_sign"] = True

    roots = {n: find_lambda_n(ModeIndex(axis, n)).lambda_n for n in range(2, n_max + 1)}
    seq = [roots[n] for n in range(2, n_max + 1)]
    if axis is Axis.XI:
        ordered = all(a > b for a, b in zip(seq, seq[1:]))
        located = all(roots[n] <= np.arcsin(1.0 / np.sqrt(n)) + 1e-9 for n in roots)
    else:
        ordered = all(a < b for a, b in zip(seq, seq[1:]))
        located = all(np.arccos(1.0 / n) < roots[n] < HALF_PI for n in roots)
    if not ordered:
        raise AnalysisError(f"{axis.value} roots are not monotone in n")
    if not located:
        raise AnalysisError(f"{axis.value} roots left their proved intervals")
    checks["root_ordering"] = True
    checks["root_location"] = True

    return AsymptoticsReport(axis, ratios, float(upper_margin if axis is Axis.XI else np.nan),
                             float(lower_margin), roots, limits, checks)
