"""The verification battery: each runtime check of the chain as one plain function.

A check takes an axis, an :class:`Injection` and its sample, and returns what
it measured as a dict; :func:`gate` holds measurements to bounds.  ``serrin
verify`` runs :func:`verify_table`, the acceptance suite calls the same checks
with its own samples and bounds.  The rows cover every stage, from the radial
reference to the bifurcation certificate and a short branch traced from it.
"""

import operator
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .branch import branch_report, check_cr_hypotheses, trace_branch
from .discrete import TubeGrid, TubeOperator
from .errors import AnalysisError
from .fourier import CosineSeries
from .geometry import Axis, BoundaryProfile, ModeIndex
from .linearize import (DEFAULT_RESOLUTION, apply_L, constant_operator, fd_derivative_H,
                        resolvent_apply)
from .modes import (chebyshev_grid, integrate_riccati, riccati_bounds, riccati_solution,
                    riccati_sweep)
from .radial import radial_flux, radial_torsion
from .spectrum import find_lambda_n, sigma, sigma_prime_closed_form
from .torsion import parse_resolution, serrin_defect, solve_torsion

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq}


@dataclass(frozen=True)
class Injection:
    """Deliberate defects proving the battery can fail: the checks' only seam."""

    sigma_sign: bool = False
    riccati_shift: float = 0.0
    axis_break: bool = False

    def sigma(self, mode, lam):
        return -sigma(mode, lam) if self.sigma_sign else sigma(mode, lam)

    def riccati(self, mode):
        shift = self.riccati_shift
        return integrate_riccati(mode, initial_shift=shift) if shift else riccati_solution(mode)

    def operator(self, axis, lam, resolution):
        if not self.axis_break:
            return constant_operator(axis, lam, resolution)
        # the other axis's reflection; only the assembled oracle takes a shifted grid
        n_t, m = parse_resolution(resolution)
        axis = Axis.coerce(axis)
        grid = TubeGrid(axis, n_t, m, axis_shift=m // 2 if axis is Axis.XI else 0)
        return TubeOperator(grid, BoundaryProfile.constant(axis, lam))


# the names ``verify --inject`` accepts, and the defect each one injects
INJECTIONS = {"none": Injection(), "sigma-sign": Injection(sigma_sign=True),
              "riccati-init": Injection(riccati_shift=-0.05),
              "axis-condition": Injection(axis_break=True)}
CLEAN = INJECTIONS["none"]


def gate(measured, bounds):
    """``measured`` if each ``key: (op, bound)`` of ``bounds`` holds (a NaN never does), else
    AnalysisError naming the first key, in bounds order, that misses; ``details`` = measured."""
    for key, (op, bound) in bounds.items():
        if not _COMPARE[op](measured[key], bound):
            err = AnalysisError(f"{key}={measured[key]!r} misses its bound {op} {bound!r}")
            err.details = measured
            raise err
    return measured


def _worst(rows):
    """Per key, the largest value over a list of dicts; a NaN propagates."""
    return {key: float(np.max([row[key] for row in rows])) for key in rows[0]}


def radial_reference(axis, inj=CLEAN, *, lams, resolution):
    """Straight tubes against the closed form: u, mean-flux, flux-variance, defect, time."""
    rows = []
    for lam in lams:
        start = time.perf_counter()
        fld = solve_torsion(BoundaryProfile.constant(axis, lam), resolution)
        rows.append({"solve_s": time.perf_counter() - start,
                     "u_error": np.max(np.abs(fld.u - radial_torsion(lam, fld.t * lam)[:, None])),
                     "flux_error": abs(np.mean(fld.neumann) - radial_flux(lam)),
                     "flux_variance": np.var(fld.neumann - radial_flux(lam)),
                     "defect": serrin_defect(fld)})
    return _worst(rows)


def eigen_identity(axis, inj=CLEAN, *, lams, modes, resolution=DEFAULT_RESOLUTION):
    """apply_L(cos(n.)) against sigma_n cos(n.): deviation and cross-mode leakage."""
    rows = []
    for lam in lams:
        op = inj.operator(axis, lam, resolution)
        for n in modes:
            la = apply_L(lam, CosineSeries.basis(n), axis=axis, operator=op)
            sig = inj.sigma(ModeIndex(axis, n), lam)
            rows.append({"deviation": np.max(np.abs(la.samples - sig * np.cos(n * la.angles))),
                         "leakage": la.leakage({n})})
    return _worst(rows)


def riccati_sweep_bounds(axis, inj=CLEAN, *, modes, grid):
    """riccati_sweep raises where a curve leaves its two-sided bounds on ``grid``."""
    for n in modes:
        riccati_sweep(inj.riccati(ModeIndex(axis, n)), lam_grid=grid)
    return {}


def riccati_margins(axis, inj=CLEAN, *, modes, grid):
    """Smallest margins inside the Riccati bounds, relative to max(1, |bound|); xi n = 2 is its
    lower bound n tan, so that margin is ``equality_margin`` (+inf on other axes)."""
    upper, lower, equality = [np.inf], [np.inf], [np.inf]
    for n in modes:
        mode = ModeIndex(axis, n)
        vals, (lo, hi) = inj.riccati(mode).values(grid), riccati_bounds(mode, grid)
        upper.append(np.min((hi - vals) / np.maximum(1.0, np.abs(hi))))
        margin = np.min((vals - lo) / np.maximum(1.0, np.abs(lo)))
        (equality if mode == ModeIndex(Axis.XI, 2) else lower).append(margin)
    return {"upper_margin": float(np.min(upper)), "lower_margin": float(np.min(lower)),
            "equality_margin": float(np.min(equality))}


def sigma_ordering(axis, inj=CLEAN, *, modes, lams):
    """Smallest step sigma_n - sigma_(n-1) between consecutive ``modes`` on ``lams``."""
    vals = np.array([[inj.sigma(ModeIndex(axis, n), lam) for lam in lams] for n in modes])
    return {"min_step": float(np.min(np.diff(vals, axis=0)))}


def sign_window(axis, inj=CLEAN, *, modes, points):
    """Smallest signed sigma_n where it is proved < 0 (xi) or > 0 (eta), from 0.05 on."""
    xi = axis is Axis.XI
    margins = []
    for n in modes:
        grid = np.linspace(0.05, np.arcsin(1.0 / n) if xi else np.arccos(1.0 / n), points)
        vals = np.array([inj.sigma(ModeIndex(axis, n), x) for x in grid])
        margins.append(np.min(-vals if xi else vals))
    return {"sign_margin": float(np.min(margins))}


def bifurcation_roots(axis, inj=CLEAN, *, modes):
    """Radii lambda_n: residual, proved window, order in n, slope signs, and the closed-form
    slope against a Richardson difference (sigma_prime_closed_form raises on its own check)."""
    xi = axis is Axis.XI
    pts = [find_lambda_n(ModeIndex(axis, n)) for n in modes]
    slope_error, located, h = [], [], 1e-4
    for p in pts:
        closed, n, lam = sigma_prime_closed_form(p), p.mode.n, p.lambda_n
        d1 = (sigma(p.mode, lam + h) - sigma(p.mode, lam - h)) / (2 * h)
        d2 = (sigma(p.mode, lam + h / 2) - sigma(p.mode, lam - h / 2)) / h
        slope_error.append(abs((4 * d2 - d1) / 3.0 - closed) / abs(closed))
        located.append(lam <= np.arcsin(n ** -0.5) + 1e-9 if xi
                       else np.arccos(1.0 / n) < lam < np.pi / 2)
    lams = [p.lambda_n for p in pts]
    return {"lambdas": lams, "residual": float(max(p.sigma_residual for p in pts)),
            "slope_error": float(np.max(slope_error)), "located": all(located),
            "ordered": bool(np.all(np.diff(lams) < 0 if xi else np.diff(lams) > 0)),
            "slope_signs": all(p.sigma_prime > 0 if xi else p.sigma_prime < 0 for p in pts)}


def linearization_fd(axis, inj=CLEAN, *, lams, steps, resolution):
    """Extrapolated differences of the flux map along cos(2.) against apply_L, abs and rel."""
    rows = []
    for lam in lams:
        dev = fd_derivative_H(lam, CosineSeries.basis(2), axis=axis, steps=steps,
                              resolution=resolution).extrapolated_deviation
        scale = max(abs(sigma(ModeIndex(axis, 2), lam)), 1e-30)
        rows.append({"deviation": dev, "relative_deviation": dev / scale})
    return _worst(rows)


def resolvent_roundtrip(axis, inj=CLEAN, *, lam, modes):
    """(sigma_m - sigma_2) times the j = 2 resolvent of cos(m.), against 1."""
    sig_j = sigma(ModeIndex(axis, 2), lam)
    return _worst([{"error": abs((sigma(ModeIndex(axis, m), lam) - sig_j) * resolvent_apply(
        lam, 2, CosineSeries.basis(m), axis=axis).coefficient(m) - 1.0)} for m in modes])


def defect_sensitivity(axis, inj=CLEAN, *, lam, amplitude, resolution):
    """Defect of the tube lam + amplitude cos(2.), which is no Serrin domain."""
    profile = BoundaryProfile.perturbed(axis, lam, 2, amplitude)
    return {"defect": float(serrin_defect(solve_torsion(profile, resolution)))}


# the certificate row and the branch traced from it share one computation
_certify = lru_cache(maxsize=8)(check_cr_hypotheses)


def certificate(axis, inj=CLEAN, *, j, truncation, resolution):
    """Certificate at (axis, j): gap, transversality slope and its sign (positive on xi)."""
    cert = _certify(ModeIndex(axis, j), truncation, resolution)
    slope = float(cert.transversality_slope)
    return {"passed": bool(cert.passed), "spectral_gap": float(cert.spectral_gap),
            "slope": slope, "slope_sign": (slope > 0) == (axis is Axis.XI)}


def branch(axis, inj=CLEAN, *, j, s_max, n_steps, truncation, resolution):
    """A branch from that certificate: termination, worst defect, orthogonality and divergence
    gap, last profile's top non-constant coefficient, least volume fraction, seconds."""
    start, mode = time.perf_counter(), ModeIndex(axis, j)
    run = trace_branch(mode, s_max, n_steps, resolution=resolution, truncation=truncation,
                       certificate=_certify(mode, truncation, resolution))
    last = run.points[-1]
    return {"termination": run.termination, "points": len(run.points), "s_end": last.s,
            **_worst([{"defect": p.defect, "orthogonality": p.kernel_orthogonality,
                       "divergence_gap": p.divergence_gap} for p in run.points]),
            "amplitude": float(np.max(np.abs(last.profile.coeffs[1:]))),
            "volume_fraction": float(branch_report(run).volume_fraction_range[0]),
            "seconds": time.perf_counter() - start}


def verify_table(axis):
    """``serrin verify``'s rows on one axis: (name, check, sample, bounds, detail),
    the detail formatting a passing row's measurements."""
    xi = Axis.coerce(axis) is Axis.XI
    lam, res, cr = (0.8 if xi else 1.0), (48, 16), dict(j=2, truncation=8, resolution=(64, 32))
    return [
        ("radial-reference", radial_reference, dict(lams=(lam,), resolution=res),
         dict(u_error=("<=", 1e-7), flux_error=("<=", 1e-6), defect=("<=", 1e-11)),
         "u_err={u_error:.1e} flux_err={flux_error:.1e}"),
        ("eigen-identity", eigen_identity, dict(lams=(lam,), modes=(2, 3) if xi else (1, 2),
         resolution=(128, 16)), dict(deviation=("<=", 1e-6)), "max_dev={deviation:.1e}"),
        ("riccati-bounds", riccati_sweep_bounds, dict(modes=(2, 5) if xi else (1, 4),
         grid=chebyshev_grid(100, 0.01, 1.4)), {}, "two-sided bounds hold"),
        ("sigma-ordering", sigma_ordering, dict(modes=range(7), lams=np.linspace(0.1, 1.3, 25)),
         dict(min_step=(">", 0.0)), "sigma strictly increasing in n"),
        ("sign-window", sign_window, dict(modes=(2, 4), points=12),
         dict(sign_margin=(">", 0.0)), "proved sign windows hold"),
        ("roots", bifurcation_roots, dict(modes=(2, 3)),
         dict(residual=("<=", 1e-10), ordered=("==", True), slope_signs=("==", True)),
         "lambda_2={lambdas[0]:.8f} lambda_3={lambdas[1]:.8f}"),
        ("linearization-fd", linearization_fd, dict(lams=(lam,), steps=(1e-2, 1e-3),
         resolution=res), dict(deviation=("<=", 1e-6)), "extrapolated_dev={deviation:.1e}"),
        ("resolvent-roundtrip", resolvent_roundtrip, dict(lam=lam, modes=(0, 1, 3, 4, 6)),
         dict(error=("<=", 1e-8)), "roundtrip_err={error:.1e}"),
        ("defect-sensitivity", defect_sensitivity, dict(lam=lam, amplitude=0.05, resolution=res),
         dict(defect=(">=", 1e-4)), "perturbed_defect={defect:.2e}"),
        ("certificate", certificate, cr, dict(passed=("==", True), spectral_gap=(">", 1e-2),
         slope_sign=("==", True)), "gap={spectral_gap:.3f} slope={slope:+.3f}"),
        ("branch", branch, dict(cr, s_max=0.004, n_steps=2), dict(
            termination=("==", "completed"), defect=("<", 1e-6), orthogonality=("<", 1e-10),
            divergence_gap=("<", 1e-6)), "{points} points to s={s_end:g} max_defect={defect:.1e}"),
    ]
