"""Independent routes the tests hold the package to.

None of these is called by the package itself:

* the linear mode ODE solved by scipy's ``solve_ivp`` (:func:`solve_l`,
  :class:`ModeSolution`, :func:`sigma_ode`), a second route to the
  Riccati curves of :mod:`serrin.modes` and to sigma_n;
* the Frobenius series of the branch regular at the axis
  (:func:`frobenius_launch`), from which :func:`solve_l` launches and to
  which the package's closed-form launch ``modes._log_derivative`` is held;
* the growth, ordering and near-wall certificates of one eigenvalue
  family (:func:`asymptotics_report`);
* the COO entries of the assembled tube operator emitted radial row by
  radial row (:func:`row_loop_entries`), the bitwise reference of
  ``discrete._coo_entries``;
* the CSC matrices of the assembled operator's entries (:func:`split_csc`),
  the one place the tests read its matrix, summed by ``scipy.sparse``
  independently of the operator's own band;
* the second-order periodic angle stencils (:func:`periodic_fd_matrices`)
  and a grid that couples the angle with them (:func:`fd2_grid`), the
  low-order reference for the package's Fourier coupling;
* the transversality slope of the discrete eigenvalue sigma_j as a
  Richardson-extrapolated central difference in lambda
  (:func:`richardson_slope`), the reference of the certificate's exact
  slope ``branch._transversality_slope``.
"""

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sparse
from scipy.integrate import solve_ivp

from serrin.discrete import StraightTubeOperator, TubeGrid, _circulant, _coo_entries
from serrin.errors import AnalysisError, ConsistencyError, DomainValidationError, PrecisionError
from serrin.fourier import CosineSeries
from serrin.geometry import HALF_PI, Axis, ModeIndex
from serrin.linearize import apply_L
from serrin.modes import DEFAULT_LAUNCH_RADIUS, chebyshev_grid
from serrin.spectrum import _sigma_from_lprime, find_lambda_n, sigma, sigma_values

DEFAULT_SERIES_ORDER = 12


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
    """(L, L') of the regular branch at ``theta`` with a tail certificate; a
    :class:`PrecisionError` also where the prefactor theta^eps is no normal float."""
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
            "raise the series order or lower the radius")
    pref = theta ** r
    if pref < sys.float_info.min:
        raise PrecisionError(
            f"Frobenius prefactor theta^eps underflows at eps={eps}, delta={delta}, "
            f"theta={theta:.3e}; at DEFAULT_LAUNCH_RADIUS it does from eta mode 103 on")
    return pref * ssum, (pref / theta) * dsum


def frobenius_launch(mode, series_order=DEFAULT_SERIES_ORDER,
                     launch_radius=DEFAULT_LAUNCH_RADIUS):
    """Value and derivative of the regular branch at theta = launch_radius.

    The branch is normalized by a unit leading coefficient.  A xi-mode is
    even at the axis with L''(0) = n^2 L(0) / 2; an eta-mode vanishes like
    theta^n.  The tail of the truncated series must certify 1e-14 and the
    prefactor theta^eps must be a normal float, else a
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
class AsymptoticsReport:
    """Measured asymptotic diagnostics for one mode family."""

    axis: Axis
    near_wall_ratios: dict      # xi: sigma * 2 cos^2/(n-1) at pi/2 - 1e-3
    upper_margin: float         # min over grid of upper bound minus sigma_n/n
    lower_margin: float         # min over grid of sigma_n/n minus lower bound
    lambda_roots: dict          # n -> lambda_n for n = 2..8
    small_lambda_limits: dict   # observed sigma_n near lambda = 0
    checks: dict                # name -> bool


def asymptotics_report(mode_or_axis, n_max=8):
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
        sig = sigma_values(mode, grid)
        if axis is Axis.XI:
            upper = 1.5 * np.tan(grid) / np.cos(grid)
            upper_margin = min(upper_margin, float(np.min(upper - sig / n)))
            if n >= 2:
                lower = 0.5 * np.tan(grid) ** 2 - 0.5 / (n * np.cos(grid) ** 2)
                lower_margin = min(lower_margin, float(np.min(sig / n - lower)))
        else:
            lower = 0.5 - 0.5 / (n * np.cos(grid) ** 2)
            lower_margin = min(lower_margin, float(np.min(sig / n - lower)))
        limits[n] = float(sigma(mode, 1e-3))

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
            val = sigma(ModeIndex(axis, n), wall)
            ratios[n] = float(val * 2.0 * np.cos(wall) ** 2 / (n - 1))
            if not 0.95 <= ratios[n] <= 1.05:
                raise AnalysisError(
                    f"xi near-wall ratio for n={n} is {ratios[n]:.4f}, outside [0.95, 1.05]")
        checks["near_wall_rate"] = True
        signs_ok = all(limits[n] < 0.0 for n in range(1, n_max + 1))
    else:
        for n in (1, 2):
            val = sigma(ModeIndex(axis, n), wall)
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


def row_loop_entries(grid, coeffs):
    """COO (rows, cols, data) of the 2-D tube operator, one radial row at a time.

    Row i emits its angle block g^aa D2, then for each stencil node j the
    radial entries g^tt w2 + c_t w1 and, unless g^ta is zero everywhere, the
    cross block 2 g^ta w1 D1, in that order.
    """
    n_t, m = grid.n_t, grid.m_angles
    d1a, d2a = grid.d1a, grid.d2a
    gtt, gta, gaa, ct = coeffs
    has_cross = bool(np.any(gta))
    st = grid.stencils
    w1, w2, lows, colmap = st.w1, st.w2, st.lows, st.colmap
    karr = np.arange(m, dtype=np.int32)
    width = w1.shape[1]
    total = n_t * (m * m + width * m * (1 + m * has_cross))
    rows = np.empty(total, dtype=np.int32)
    cols = np.empty(total, dtype=np.int32)
    data = np.empty(total)
    end = 0

    def emit(row_idx, col_idx, values):
        nonlocal end
        start, end = end, end + values.size
        rows[start:end] = row_idx.ravel()
        cols[start:end] = col_idx.ravel()
        data[start:end] = values.ravel()

    for i in range(n_t):
        row_k = i * m + karr
        block_rows = np.repeat(row_k, m)
        emit(block_rows, np.tile(row_k, m), gaa[i][:, None] * d2a)
        for j in range(width):
            col_k = colmap[lows[i] + j]
            emit(row_k, col_k, gtt[i] * w2[i, j] + ct[i] * w1[i, j])
            if has_cross:
                emit(block_rows, np.tile(col_k, m),
                     (2.0 * gta[i] * w1[i, j])[:, None] * d1a)
    assert end == total
    return rows, cols, data


def split_csc(operator):
    """The interior and the t = 1 columns of an assembled operator, as CSC matrices.

    ``operator`` is a :class:`~serrin.discrete.TubeOperator`; its COO
    entries are converted with duplicates summed, and the interior columns
    are the first n_t M.
    """
    n, m = operator.n_t * operator.m_angles, operator.m_angles
    rows, cols, data = _coo_entries(operator.grid, operator._coeffs)
    full = sparse.coo_matrix((data, (rows, cols)), shape=(n, n + m)).tocsc()
    return full[:, :n], full[:, n:]


def periodic_fd_matrices(m_angles):
    """Second-order periodic stencils of d/da and d^2/da^2 on M angle nodes."""
    m = m_angles
    h = 2.0 * np.pi / m
    col1 = np.zeros(m)
    col1[1] = -0.5 / h
    col1[-1] = 0.5 / h
    col2 = np.zeros(m)
    col2[0] = -2.0 / h ** 2
    col2[1] = col2[-1] = 1.0 / h ** 2
    return _circulant(col1), _circulant(col2)


def fd2_grid(axis, n_t, m_angles, axis_shift=None, symmetry=1):
    """A :class:`~serrin.discrete.TubeGrid` whose angle matrices are second order.

    ``d1a`` and ``d2a`` are :func:`periodic_fd_matrices` of the grid's angle
    nodes, times j and j^2 on a sector of symmetry order j as the Fourier
    matrices are, and read-only like the rest of the grid.  It serves the
    assembled ``TubeOperator``.  Every operator's row norm, the one that
    scales its residual, assumes the Fourier coupling, so on this grid it
    is the Fourier operator's.
    """
    grid = TubeGrid(axis, n_t, m_angles, axis_shift, symmetry)
    j = grid.symmetry
    d1a, d2a = periodic_fd_matrices(grid.m_angles)
    grid.d1a, grid.d2a = j * d1a, j * j * d2a
    for array in (grid.d1a, grid.d2a):
        array.flags.writeable = False
    return grid


# ----------------------------------------------------------------------
# the transversality slope by differences in lambda
# ----------------------------------------------------------------------

def discrete_sigma(grid, j, lam):
    """sigma_j of the straight tube ``lam`` on ``grid``: one extension of cos(j .)."""
    la = apply_L(lam, CosineSeries.basis(j), axis=grid.axis,
                 operator=StraightTubeOperator(grid, lam))
    return la.series.coefficient(j)


def richardson_slope(grid, j, lam, h=1e-3):
    """d sigma_j / d lambda from central differences at steps h and h/2, extrapolated.

    Each difference is O(h^2) accurate, so (4 D(h/2) - D(h)) / 3 is O(h^4).
    """
    def central(step):
        return (discrete_sigma(grid, j, lam + step) - discrete_sigma(grid, j, lam - step)) / (
            2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0
