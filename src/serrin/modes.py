"""Radial factors of harmonic extensions on straight tubes.

A boundary datum cos(eps*eta)cos(delta*xi) extends harmonically into the
tube of radius lam as l(t) * datum, where l solves

    l'' + lam [cot(t lam) - tan(t lam)] l'
        - lam^2 [eps^2/sin^2(t lam) + delta^2/cos^2(t lam)] l = 0,  l(1) = 1.

In the tube-radius variable theta = t*lam the equation is radius-free,

    L'' + 2 cot(2 theta) L' - [eps^2/sin^2 + delta^2/cos^2] L = 0,

with regular singular points at theta = 0 and pi/2.  This module launches
the regular Frobenius branch at the axis, continues it by adaptive
integration, and integrates the logarithmic-derivative (Riccati) equations

    f_n' = [tan - cot] f_n - f_n^2 + n^2/cos^2        (xi modes, f_n = L'/L)
    k_n' = [tan - cot + 1/lam] k_n - k_n^2/lam
           + n^2 lam / sin^2                          (eta modes, k_n = lam L'/L)

whose values feed the eigenvalue curves in :mod:`serrin.spectrum`.  Both
integrations switch to the reciprocal variable past lam = 1.2 where the
xi-family blows up like n/(pi/2 - lam) (the eta-family is merely stiff
there; the same change of variable tames both).

The scalar Riccati equations are integrated by DOP853 (Hairer, Norsett and
Wanner, Solving ODEs I, II.5-II.6) stepped on Python floats with scipy's
tableau and step control; each accepted step leaves one row of dense-output
coefficients, and a curve is evaluated from those tables in one vectorized
pass.  The linear mode ODE of :func:`solve_l` keeps scipy's ``solve_ivp``,
so it stays an independent route to the same curves.
"""

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.integrate import DOP853, solve_ivp

from .errors import ConsistencyError, DomainValidationError, NumericalError, PrecisionError
from .geometry import HALF_PI, Axis, ModeIndex

__all__ = [
    "Endpoint", "ModeSolution", "RiccatiState",
    "indicial_roots", "frobenius_launch", "solve_l",
    "riccati_sweep", "riccati_solution", "chebyshev_grid",
    "DEFAULT_SERIES_ORDER", "DEFAULT_LAUNCH_RADIUS", "LAMBDA_MAX",
]

DEFAULT_SERIES_ORDER = 12
DEFAULT_LAUNCH_RADIUS = 1e-3
RECIPROCAL_SWITCH = 1.2
LAMBDA_MAX = HALF_PI - 1e-4


class Endpoint(Enum):
    ZERO = "zero"
    PI_HALF = "pi_half"


# ----------------------------------------------------------------------
# power-series plumbing (coefficient arrays, index = power of theta)
# ----------------------------------------------------------------------

def _poly_mul(a, b, order):
    out = np.zeros(order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if ai == 0.0:
            continue
        hi = min(order - i, len(b) - 1)
        out[i:i + hi + 1] += ai * b[:hi + 1]
    return out


def _poly_div(a, b, order):
    # power-series division, requires b[0] != 0
    out = np.zeros(order + 1)
    binv = 1.0 / b[0]
    for k in range(order + 1):
        acc = a[k] if k < len(a) else 0.0
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out[k] = acc * binv
    return out


def _sin_over_theta(order):
    c = np.zeros(order + 1)
    fact = 1.0
    for k in range(0, order + 1, 2):
        c[k] = (-1.0) ** (k // 2) / fact
        fact *= (k + 2) * (k + 3)
    return c


def _cos_series(order):
    c = np.zeros(order + 1)
    fact = 1.0
    for k in range(0, order + 1, 2):
        c[k] = (-1.0) ** (k // 2) / fact
        fact *= (k + 1) * (k + 2)
    return c


@lru_cache(maxsize=None)
def _ode_series(eps, delta, order):
    """Taylor data (B, C) of theta^2 L'' + theta B(theta) L' + C(theta) L = 0.

    B = theta (cot - tan) and C = -theta^2 (eps^2/sin^2 + delta^2/cos^2):
    both even, B(0) = 1, C(0) = -eps^2.
    """
    work = order + 2
    sot = _sin_over_theta(work)          # sin(theta)/theta
    cos = _cos_series(work)
    theta_cot = _poly_div(cos, sot, work)            # theta * cot
    tan = _poly_div(np.r_[0.0, sot[:-1]], cos, work)  # sin/cos
    b = theta_cot - np.r_[0.0, tan[:-1]]              # theta cot - theta tan
    theta_csc = _poly_div(np.r_[1.0, np.zeros(work)], sot, work)   # theta/sin
    theta_sec = np.r_[0.0, _poly_div(np.r_[1.0, np.zeros(work)], cos, work)[:-1]]
    c = -(eps ** 2) * _poly_mul(theta_csc, theta_csc, work) \
        - (delta ** 2) * _poly_mul(theta_sec, theta_sec, work)
    return b[:order + 1], c[:order + 1]


@lru_cache(maxsize=None)
def _frobenius_coeffs(eps, delta, order):
    """Coefficients of the regular branch L = theta^eps sum c_m theta^m, c0=1.

    The indicial polynomial at the axis is (r - eps)(r + eps); the shifted
    values (eps+m)^2 - eps^2 = m(m + 2 eps) never vanish for m >= 1, so the
    recurrence is resonance-free.
    """
    b, c = _ode_series(eps, delta, order)
    r = float(eps)
    coef = np.zeros(order + 1)
    coef[0] = 1.0
    for m in range(1, order + 1):
        acc = 0.0
        for k in range(1, m + 1):
            acc += ((r + m - k) * b[k] + c[k]) * coef[m - k]
        coef[m] = -acc / (m * (m + 2.0 * r))
    return coef


def _series_eval(eps, delta, theta, order):
    """(L, L') of the regular branch at ``theta`` with a tail certificate."""
    coef = _frobenius_coeffs(eps, delta, order)
    r = float(eps)
    terms = coef * theta ** np.arange(order + 1)
    ssum = float(np.sum(terms))
    dsum = float(np.sum((r + np.arange(order + 1)) * terms))
    tail = float(np.max(np.abs(terms[-2:])))
    if tail > 1e-14 * max(abs(ssum), 1e-300):
        raise PrecisionError(
            f"Frobenius series not converged at theta={theta:.3e} "
            f"(order {order}, last-term ratio {tail / max(abs(ssum), 1e-300):.3e}); "
            "reduce launch_radius or raise series_order")
    pref = theta ** r
    return pref * ssum, (pref / theta) * dsum


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def indicial_roots(mode, endpoint):
    """Local exponents of the mode ODE at one of its singular endpoints.

    The axis exponents are (+n, -n) for the family oscillating on the
    collapsing circle and the double root (0, 0) for the other; the roles
    swap at theta = pi/2 where the opposite circle degenerates.
    """
    mode = ModeIndex.coerce(mode)
    n = float(mode.n)
    at_zero = (mode.axis is Axis.ETA)
    if endpoint is Endpoint.PI_HALF:
        at_zero = not at_zero
    return (n, -n) if at_zero else (0.0, 0.0)


def frobenius_launch(mode, series_order=DEFAULT_SERIES_ORDER,
                     launch_radius=DEFAULT_LAUNCH_RADIUS):
    """Value and derivative of the regular branch at theta = launch_radius.

    The branch is normalized by a unit leading coefficient.  A xi-mode is
    even at the axis with L''(0) = n^2 L(0) / 2; an eta-mode vanishes like
    theta^n.  The tail of the truncated series must certify 1e-14, else a
    :class:`PrecisionError` is raised.
    """
    mode = ModeIndex.coerce(mode)
    if launch_radius <= 0 or launch_radius >= HALF_PI:
        raise DomainValidationError("launch_radius must lie in (0, pi/2)")
    eps, delta = mode.eps_delta
    return _series_eval(eps, delta, float(launch_radius), int(series_order))


@dataclass(frozen=True)
class ModeSolution:
    """Radial factor of one harmonic extension, normalized to l(1) = 1."""

    eps: int
    delta: int
    lam: float
    t: np.ndarray
    values: np.ndarray
    l_prime_at_1: float
    frobenius: dict

    @property
    def mode(self):
        """Equivalent pure-mode index, if the mode is pure."""
        if self.eps and self.delta:
            return None
        if self.eps:
            return ModeIndex(Axis.ETA, self.eps)
        return ModeIndex(Axis.XI, self.delta)


def _theta_rhs(eps, delta):
    e2, d2 = float(eps * eps), float(delta * delta)

    def rhs(theta, y):
        s, c = np.sin(theta), np.cos(theta)
        q = e2 / (s * s) + d2 / (c * c)
        return (y[1], -2.0 * (np.cos(2 * theta) / np.sin(2 * theta)) * y[1] + q * y[0])
    return rhs


def solve_l(eps, delta, lam, t_grid=None, rtol=1e-12,
            series_order=DEFAULT_SERIES_ORDER, launch_radius=DEFAULT_LAUNCH_RADIUS):
    """Regular-at-axis radial factor l for frequencies (eps, delta).

    Launches the Frobenius branch at a small radius and continues it to
    theta = lam with an adaptive high-order integrator, then normalizes to
    l(1) = 1.  The pair (0, 0) short-circuits to the constant solution.

    Parameters
    ----------
    eps, delta : int
        Angular frequencies on the collapsing and surviving circles.
    lam : float
        Tube radius in (0, pi/2).
    t_grid : array, optional
        Sample points in (0, 1]; defaults to 257 uniform points.
    """
    lam = float(lam)
    if not 0.0 < lam < HALF_PI:
        raise DomainValidationError(f"lambda must lie in (0, pi/2), got {lam}")
    if eps < 0 or delta < 0 or int(eps) != eps or int(delta) != delta:
        raise DomainValidationError("eps, delta must be integers >= 0")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 257)[1:]
    t_grid = np.asarray(t_grid, dtype=float)

    meta = {"indicial_roots": (float(eps), -float(eps)),
            "launch_radius": launch_radius, "series_order": series_order}
    if eps == 0 and delta == 0:
        return ModeSolution(0, 0, lam, t_grid, np.ones_like(t_grid), 0.0, meta)

    theta0 = min(launch_radius, 0.5 * lam)
    y0 = _series_eval(eps, delta, theta0, series_order)
    sol = solve_ivp(_theta_rhs(eps, delta), (theta0, lam), y0, method="DOP853",
                    rtol=rtol, atol=0.0, dense_output=True)
    if not sol.success:
        raise PrecisionError(
            f"mode ODE integration did not meet tolerance {rtol}: {sol.message}")
    l_lam, dl_lam = sol.sol(lam)

    theta = t_grid * lam
    vals = np.empty_like(theta)
    small = theta < theta0
    if np.any(small):
        coef = _frobenius_coeffs(eps, delta, series_order)
        th = theta[small]
        vals[small] = th ** float(eps) * np.polynomial.polynomial.polyval(th, coef)
    if np.any(~small):
        vals[~small] = sol.sol(theta[~small])[0]
    vals /= l_lam
    vals[t_grid == 1.0] = 1.0

    out = ModeSolution(int(eps), int(delta), lam, t_grid, vals,
                       float(lam * dl_lam / l_lam), meta)
    _check_mode_solution(out)
    return out


def _check_mode_solution(ms):
    if np.any(ms.values <= 0.0):
        raise ConsistencyError("radial factor lost positivity; integrator or launch bug")
    if (ms.eps, ms.delta) != (0, 0) and np.any(np.diff(ms.values) < 0.0):
        raise ConsistencyError("radial factor lost monotonicity; integrator or launch bug")


# ----------------------------------------------------------------------
# scalar DOP853 with dense output
# ----------------------------------------------------------------------
#
# Python floats, because numpy's per-call overhead on a length-1 state costs
# ten times the right-hand side.  The tableau is read from scipy's DOP853
# class; each stage keeps only its nonzero (index, coefficient) pairs.

def _nonzero(row):
    return tuple((i, a) for i, a in enumerate(row) if a != 0.0)


_N_STAGES = DOP853.n_stages
_STAGES = tuple((c, _nonzero(a[:s])) for s, (a, c) in
                enumerate(zip(DOP853.A.tolist(), DOP853.C.tolist())) if s)
_WEIGHTS = _nonzero(DOP853.B.tolist())
_ERR3, _ERR5 = _nonzero(DOP853.E3.tolist()), _nonzero(DOP853.E5.tolist())
_EXTRA_STAGES = tuple((c, _nonzero(a[:s])) for s, (a, c) in
                      enumerate(zip(DOP853.A_EXTRA.tolist(), DOP853.C_EXTRA.tolist()),
                                start=_N_STAGES + 1))
_DENSE = tuple(_nonzero(row) for row in DOP853.D.tolist())
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _combine(pairs, k):
    acc = 0.0
    for i, a in pairs:
        acc += a * k[i]
    return acc


def _initial_step(rhs, t, y, f, t_end, rtol, atol):
    """Hairer's starting step (II.4), as scipy's ``select_initial_step``."""
    interval = t_end - t
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y / scale), abs(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = abs((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100.0 * h0, h1, interval)


def _dop853_table(rhs, t, y, t_end, rtol, atol, details):
    """Integrate the scalar ODE y' = rhs(t, y) from t to t_end > t.

    Returns the dense-output table: one row (t_old, h, y_old, F_0..F_6) per
    accepted step, F being DOP853's interpolation coefficients.  The step
    control is scipy's: the E5/E3 error norm, safety factor 0.9, factor
    limits 0.2 and 10, no growth right after a rejection and a minimum step
    of 10 ulp of t.  A step below that minimum or a non-finite value raises
    a :class:`NumericalError` whose ``details`` extend ``details`` with the
    lambda reached, the last step and ``rtol``.
    """
    h = None

    def fail(reason):
        err = NumericalError(f"Riccati integration failed: {reason} at lam={t:.6g}")
        err.details = {**details, "lam": t, "step": h, "rtol": rtol}
        return err

    f = rhs(t, y)
    if not (math.isfinite(y) and math.isfinite(f)):
        raise fail("non-finite value")
    h_abs = _initial_step(rhs, t, y, f, t_end, rtol, atol)
    k = [0.0] * (_N_STAGES + 1 + len(_EXTRA_STAGES))
    rows = []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise fail("step size fell below the minimum")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            k[0] = f
            for s, (c, pairs) in enumerate(_STAGES, start=1):
                k[s] = rhs(t + c * h, y + _combine(pairs, k) * h)
            y_new = y + h * _combine(_WEIGHTS, k)
            k[_N_STAGES] = f_new = rhs(t_new, y_new)
            scale = atol + max(abs(y), abs(y_new)) * rtol
            err5 = _combine(_ERR5, k) / scale
            err3 = _combine(_ERR3, k) / scale
            err5, err3 = err5 * err5, err3 * err3
            norm = 0.0 if err5 == 0.0 and err3 == 0.0 else \
                h * err5 / math.sqrt(err5 + 0.01 * err3)
            if norm < 1.0:
                factor = _MAX_FACTOR if norm == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * norm ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * norm ** _ERROR_EXPONENT)
            rejected = True
        if not (math.isfinite(y_new) and math.isfinite(f_new)):
            raise fail("non-finite value")
        for s, (c, pairs) in enumerate(_EXTRA_STAGES, start=_N_STAGES + 1):
            k[s] = rhs(t + c * h, y + _combine(pairs, k) * h)
        dy = y_new - y
        rows.append((t, h, y, dy, h * f - dy, 2.0 * dy - h * (f_new + f),
                     *(h * _combine(pairs, k) for pairs in _DENSE)))
        t, y, f = t_new, y_new, f_new
    return np.array(rows)


def _dense_eval(rows, x):
    """DOP853 interpolant of each table row at the matching point of x."""
    s = (x - rows[:, 0]) / rows[:, 1]
    s1 = 1.0 - s
    y = np.zeros_like(s)
    for i, col in enumerate(range(rows.shape[1] - 1, 2, -1)):
        y += rows[:, col]
        y *= s1 if i % 2 else s
    return y + rows[:, 2]


# ----------------------------------------------------------------------
# Riccati sweeps
# ----------------------------------------------------------------------

class RiccatiSolution:
    """Dense-output logarithmic derivative of one mode family.

    Evaluates f_n (xi) or k_n (eta) anywhere in (0, lam_max].  Below the
    launch radius the Frobenius series is used point by point.  Above it,
    the direct step table on [lam0, switch] and the reciprocal one on
    [switch, lam_max] (rows of :func:`_dop853_table`) are stacked, and
    :meth:`values` locates every lambda with one ``searchsorted`` over their
    step starts; at a step boundary the earlier step is used.
    """

    def __init__(self, mode, lam0, lam_max, direct, reciprocal, series_order):
        self.mode = mode
        self.lam0 = lam0
        self.lam_max = lam_max
        self._order = series_order
        self._n_direct = 0 if direct is None else len(direct)
        self._rows = None if direct is None else \
            np.concatenate([direct] + ([] if reciprocal is None else [reciprocal]))
        # step k covers (start_k, start_k+1]: searchsorted here is its index
        self._inner_starts = None if direct is None else self._rows[1:, 0].copy()

    def value(self, lam):
        return float(self.values(np.asarray([lam]))[0])

    def values(self, lam):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam <= 0.0) or np.any(lam > self.lam_max + 1e-15):
            raise DomainValidationError(
                f"lambda outside swept range (0, {self.lam_max:.6f}]")
        if self.mode.n == 0:
            return np.zeros_like(lam)
        flat = lam.ravel()
        x = np.clip(flat, self.lam0, self.lam_max)   # the series overwrites x < lam0
        idx = np.searchsorted(self._inner_starts, x)
        out = _dense_eval(self._rows[idx], x)
        np.divide(1.0, out, out=out, where=idx >= self._n_direct)
        eps, delta = self.mode.eps_delta
        for i in np.flatnonzero(flat < self.lam0):
            val, der = _series_eval(eps, delta, flat[i], self._order)
            out[i] = flat[i] * der / val if self.mode.axis is Axis.ETA else der / val
        return out.reshape(lam.shape)


def _riccati_rhs(mode):
    n2 = float(mode.n ** 2)
    tan, sin, cos = math.tan, math.sin, math.cos
    if mode.axis is Axis.XI:
        def rhs(lam, y):
            t = tan(lam)
            c = cos(lam)
            return (t - 1.0 / t) * y - y * y + n2 / (c * c)

        def rhs_recip(lam, y):
            t = tan(lam)
            q = y / cos(lam)
            return -(t - 1.0 / t) * y + 1.0 - n2 * (q * q)
    else:
        def rhs(lam, y):
            t = tan(lam)
            s = sin(lam)
            return (t - 1.0 / t + 1.0 / lam) * y - y * y / lam + n2 * lam / (s * s)

        def rhs_recip(lam, y):
            t = tan(lam)
            q = y / sin(lam)
            return -(t - 1.0 / t + 1.0 / lam) * y + 1.0 / lam - n2 * lam * (q * q)
    return rhs, rhs_recip


@lru_cache(maxsize=256)
def riccati_solution(mode, rtol=1e-10, lam_max=LAMBDA_MAX,
                     series_order=DEFAULT_SERIES_ORDER,
                     launch_radius=DEFAULT_LAUNCH_RADIUS, _initial_shift=0.0):
    """Cached dense Riccati integration for one mode family.

    Starts from the series-generated value at the launch radius (which
    carries f_n ~ n^2 lam / 2 for xi modes and k_n -> n for eta modes) and
    integrates with the scalar DOP853 stepper :func:`_dop853_table`; past
    lam = 1.2 the reciprocal variable is integrated instead so the blow-up
    of the xi family near pi/2 stays well scaled.  A failed integration
    raises a :class:`NumericalError` whose ``details`` name the mode, the
    segment (``direct`` or ``reciprocal``), the lambda reached, the last
    step and the integration rtol.

    ``_initial_shift`` deliberately corrupts the launch value; it exists so
    the verification battery can prove its bound monitors are not vacuous.
    """
    mode = ModeIndex.coerce(mode)
    if not 0.0 < lam_max < HALF_PI:
        raise DomainValidationError("lam_max must lie in (0, pi/2)")
    if mode.n == 0:
        return RiccatiSolution(mode, launch_radius, lam_max, None, None, series_order)

    eps, delta = mode.eps_delta
    lam0 = float(launch_radius)
    switch = min(RECIPROCAL_SWITCH, lam_max)
    if not 0.0 < lam0 < switch:
        raise DomainValidationError(f"launch_radius must lie in (0, {switch:.6f})")
    val, der = _series_eval(eps, delta, lam0, series_order)
    y0 = der / val
    if mode.axis is Axis.ETA:
        y0 *= lam0
    y0 += _initial_shift

    # integrate well below the requested tolerance so the exposed value is
    # a genuine accuracy level (halving it must move results by less)
    ivp_rtol = max(rtol / 25.0, 1e-13)
    rhs, rhs_recip = _riccati_rhs(mode)
    where = {"mode": [mode.axis.value, mode.n]}
    direct = _dop853_table(rhs, lam0, float(y0), switch, ivp_rtol, 1e-14,
                           {**where, "segment": "direct"})
    reciprocal = None
    if lam_max > switch:
        r0 = 1.0 / float(_dense_eval(direct[-1:], np.asarray([switch]))[0])
        reciprocal = _dop853_table(rhs_recip, switch, r0, lam_max, ivp_rtol, 1e-16,
                                   {**where, "segment": "reciprocal"})
    return RiccatiSolution(mode, lam0, lam_max, direct, reciprocal, series_order)


@dataclass(frozen=True)
class RiccatiState:
    """Sampled logarithmic-derivative curve of one mode family."""

    mode: ModeIndex
    lam: np.ndarray
    values: np.ndarray


def chebyshev_grid(n, lo=DEFAULT_LAUNCH_RADIUS, hi=LAMBDA_MAX):
    """n Chebyshev-distributed nodes on (lo, hi), dense near both ends."""
    k = np.arange(n)
    x = np.cos((2 * k + 1) * np.pi / (2 * n))[::-1]
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * x


def riccati_bounds(mode, lam):
    """Two-sided comparison bounds (lower, upper) where they are proved.

    Upper: 3n/cos(lam), both families, n >= 1.  Lower: n tan(lam) for xi
    modes with n >= 2 (reached exactly at n = 2) and n lam cot(lam) for eta
    modes with n >= 1; ``None`` marks sides with no proved bound.
    """
    mode = ModeIndex.coerce(mode)
    n, lam = mode.n, np.asarray(lam, dtype=float)
    if n == 0:
        return None, None
    upper = 3.0 * n / np.cos(lam)
    if mode.axis is Axis.XI:
        lower = n * np.tan(lam) if n >= 2 else None
    else:
        lower = n * lam / np.tan(lam)
    return lower, upper


def riccati_sweep(mode, lam_max=LAMBDA_MAX, tol=1e-10, lam_grid=None,
                  bound_tol=1e-7, _initial_shift=0.0):
    """Sweep the Riccati value over a lambda grid with bound monitoring.

    The proved two-sided comparison bounds act as built-in correctness
    monitors: a violation beyond ``bound_tol`` (relative to the bound scale)
    aborts with a :class:`ConsistencyError`, since it can only come from a
    defective launch or integration.
    """
    mode = ModeIndex.coerce(mode)
    if lam_grid is None:
        lam_grid = chebyshev_grid(400, DEFAULT_LAUNCH_RADIUS, lam_max)
    lam_grid = np.asarray(lam_grid, dtype=float)
    sol = riccati_solution(mode, rtol=tol, lam_max=max(lam_max, float(np.max(lam_grid))),
                           _initial_shift=_initial_shift)
    vals = sol.values(lam_grid)

    lower, upper = riccati_bounds(mode, lam_grid)
    if upper is not None:
        scale = np.maximum(1.0, np.abs(upper))
        _check_bound(mode, "upper comparison bound 3n/cos(lam)", lam_grid, vals, upper,
                     vals - upper > bound_tol * scale, bound_tol)
        if lower is not None:
            _check_bound(mode, "lower comparison bound", lam_grid, vals, lower,
                         lower - vals > bound_tol * scale, bound_tol)
    return RiccatiState(mode, lam_grid, vals)


def _check_bound(mode, name, lam_grid, vals, bound, violated, bound_tol):
    """Raise a ConsistencyError at the first grid point that breaks the bound."""
    if not np.any(violated):
        return
    k = int(np.argmax(violated))
    err = ConsistencyError(f"{mode} violates the {name} at lam={lam_grid[k]:.6f}")
    err.details = {"mode": [mode.axis.value, mode.n], "lam": float(lam_grid[k]),
                   "value": float(vals[k]), "bound": float(bound[k]),
                   "bound_tol": bound_tol}
    raise err
