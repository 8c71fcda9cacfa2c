"""Linearized flux map on straight tubes: extension and action.

The derivative of the boundary-flux map H at a constant profile lam acts on
boundary data w through the harmonic extension ext(w) of w into the tube:

    L_lam[w] = tan(lam)/(2 lam) * d ext(w)/dt |_{t=1} - w / (2 cos^2 lam).

On a pure mode cos(n * angle) this returns sigma_n(lam) * cos(n * angle),
which ties the discrete operator here to the ODE-based curves in
:mod:`serrin.spectrum`; the finite-difference derivative of the full
nonlinear H provides the end-to-end validation of that identity.
"""

from dataclasses import dataclass

import numpy as np

from .discrete import MatrixFreeTubeOperator, TubeGrid
from .errors import AnalysisError, DomainValidationError
from .fourier import CosineSeries, cosine_coefficients
from .geometry import HALF_PI, Axis, BoundaryProfile, ModeIndex
from .torsion import check_residual, parse_resolution, solve_torsion

__all__ = ["HarmonicExtension", "LApplication", "harmonic_extend", "apply_L",
           "fd_derivative_H", "constant_operator", "FDDerivativeTable"]

DEFAULT_RESOLUTION = (256, 48)


def _as_series(w):
    if isinstance(w, CosineSeries):
        return w
    if isinstance(w, ModeIndex):
        return CosineSeries.basis(w.n)
    return CosineSeries(np.asarray(w, dtype=float))


def constant_operator(axis, lam, resolution=DEFAULT_RESOLUTION):
    """Matrix-free operator of the straight tube of radius ``lam``.

    A :class:`~serrin.discrete.MatrixFreeTubeOperator`: it applies the 2-D
    operator node by node and solves by GMRES, preconditioned by the
    per-mode :class:`~serrin.discrete.StraightTubeOperator` of the same
    tube.  For a constant profile the preconditioner is the operator itself
    up to roundoff, so a solve stops after one Krylov iteration: one
    preconditioner solve and one node-by-node apply, with the boundary data
    lifted on the rows next to t = 1, and :func:`harmonic_extend`'s residual
    is a second apply.  GMRES stops only on the true residual of the
    node-by-node apply, so a coupling of angle modes in that apply would
    cost more iterations and show in the solution.  The caller owns it: one
    preconditioner factorization and one Krylov workspace serve every
    boundary datum at the same radius when the operator is passed as
    ``operator=`` to :func:`apply_L` or :func:`harmonic_extend`.  Its solves
    and applies run on one BLAS thread (:mod:`serrin._blas`).
    """
    n_t, m = parse_resolution(resolution)
    return MatrixFreeTubeOperator(TubeGrid(axis, n_t, m), BoundaryProfile.constant(axis, lam))


@dataclass
class HarmonicExtension:
    """Discrete harmonic field with the given boundary trace."""

    lam: float
    axis: Axis
    w: CosineSeries
    t: np.ndarray
    angles: np.ndarray
    field: np.ndarray
    t_trace: np.ndarray      # d field/dt on t = 1
    residual: float
    symmetry: int = 1        # the grid's order j: the angles cover [0, 2 pi/j)


def harmonic_extend(lam, w, axis=Axis.XI, resolution=None, operator=None):
    """Harmonic extension of single-angle boundary data into the tube.

    By default this goes through :func:`constant_operator`
    (``DEFAULT_RESOLUTION`` for None), the matrix-free 2-D operator that the
    torsion solver applies, whose GMRES solve and scaled residual both
    apply it node by node, so callers that pass one (or none) genuinely
    measure its cross-mode leakage.  Any operator with the same ``solve``
    and residual serves, the tests' assembled oracle
    :class:`~serrin.discrete.TubeOperator` included: its residual is the
    same node-by-node apply, and it lifts the boundary data from its own
    entries on t = 1, not through ``boundary_lift``.  A
    :class:`~serrin.discrete.StraightTubeOperator`
    passed as ``operator`` gives the same field from per-mode radial solves,
    which cannot leak by construction.  Built on a grid of symmetry order
    j, it solves on the sector [0, 2 pi/j), which carries data whose
    frequencies are multiples of j.  A passed operator must be the straight
    tube ``lam`` of ``axis``, at ``resolution`` if given, else
    :class:`DomainValidationError` names both sides.  So does a frequency of
    ``w`` above M/2 of the full circle or off the multiples of j, with M and j.
    """
    lam = float(lam)
    if not 0.0 < lam < HALF_PI:
        raise DomainValidationError(f"lambda must lie in (0, pi/2), got {lam}")
    axis = Axis.coerce(axis)
    w = _as_series(w)
    op = operator if operator is not None else constant_operator(
        axis, lam, DEFAULT_RESOLUTION if resolution is None else resolution)
    _check_operator(op, lam, axis, resolution)
    m, j = op.grid.resolution[1], op.grid.symmetry
    alias = [k for k in np.flatnonzero(w.coeffs) if k > m // 2 or k % j]
    if alias:
        raise DomainValidationError(
            f"boundary data frequency {alias[0]} aliases on the operator's grid (M = {m}, "
            f"j = {j}): it carries the multiples of j up to M/2")
    bc = w(op.angles)
    fieldvals = op.solve(0.0, bc)
    residual = op.scaled_residual(fieldvals, 0.0, bc)
    check_residual("harmonic extension", residual, op)
    return HarmonicExtension(lam, axis, w, op.t, op.angles, fieldvals,
                             op.t_derivative_trace(fieldvals, bc), residual,
                             op.grid.symmetry)


def _check_operator(op, lam, axis, resolution):
    """:class:`DomainValidationError` naming both sides unless ``op`` is the tube asked for."""
    prof, have = op.profile, op.grid.resolution
    want = have if resolution is None else parse_resolution(resolution)
    clashes = [text for clash, text in (
        (prof.axis is not axis, f"axis {axis.value} vs the operator's {prof.axis.value}"),
        (not prof.is_constant or float(prof.coeffs[0]) != lam,
         f"the straight tube {lam!r} vs the operator's profile {prof.coeffs.tolist()}"),
        (want != have, f"resolution {want} vs the operator's {have}")) if clash]
    if clashes:
        raise DomainValidationError("operator does not match the arguments: " + "; ".join(clashes))


@dataclass
class LApplication:
    """Result of applying the linearized flux map to boundary data."""

    lam: float
    axis: Axis
    w: CosineSeries
    angles: np.ndarray
    samples: np.ndarray
    series: CosineSeries
    sine_residual: float

    def leakage(self, keep):
        """Largest output coefficient outside the given input frequencies."""
        out = 0.0
        for m in range(self.series.n_modes + 1):
            if m not in keep:
                out = max(out, abs(self.series.coefficient(m)))
        return max(out, self.sine_residual)


def apply_L(lam, w, axis=Axis.XI, resolution=None, operator=None):
    """Apply the linearized flux map at a straight tube; arguments as :func:`harmonic_extend`."""
    ext = harmonic_extend(lam, w, axis=axis, resolution=resolution, operator=operator)
    lam = ext.lam
    samples = (np.tan(lam) / (2.0 * lam)) * ext.t_trace \
        - ext.w(ext.angles) / (2.0 * np.cos(lam) ** 2)
    coeffs, sine_res = cosine_coefficients(samples, symmetry=ext.symmetry)
    return LApplication(lam, ext.axis, ext.w, ext.angles, samples,
                        CosineSeries(coeffs), sine_res)


@dataclass
class FDDerivativeTable:
    """Centered-difference derivative of H with its convergence record."""

    lam: float
    axis: Axis
    w: CosineSeries
    steps: np.ndarray
    deviations: np.ndarray   # max-norm distance from apply_L per step
    samples: np.ndarray      # Richardson-extrapolated derivative samples
    extrapolated_deviation: float
    slope: float             # fitted convergence order of the raw differences


def fd_derivative_H(lam, w, axis=Axis.XI, steps=(1e-2, 1e-3, 1e-4, 1e-5),
                    resolution=(64, 64)):
    """Directional derivative of the nonlinear flux map by central differences.

    Solves the torsion problem at profiles lam +/- h*w, forms
    (H(lam + h w) - H(lam - h w)) / (2 h) per step, Richardson-extrapolates
    the two finest steps, and tabulates the per-step deviation from the
    linearized operator.  The raw deviations must shrink with h (order ~2);
    if they fail to decrease at the coarse end the run aborts, since that
    signals an inconsistent linearization rather than roundoff.  ``steps``
    must be at least two distinct, finite, positive numbers, else
    :class:`DomainValidationError` names them before any solve.
    """
    w = _as_series(w)
    axis = Axis.coerce(axis)
    steps = np.asarray(sorted(steps, reverse=True), dtype=float)
    if (steps.size < 2 or not np.all(np.isfinite(steps)) or not np.all(steps > 0.0)
            or np.unique(steps).size != steps.size):
        raise DomainValidationError(
            "steps must be at least two distinct, finite, positive numbers, "
            f"got {tuple(steps.tolist())}")
    scale = float(np.max(np.abs(w.samples(256)))) or 1.0
    for h in steps:
        hi = lam + h * scale
        lo = lam - h * scale
        if not (0.0 < lo and hi < HALF_PI):
            raise DomainValidationError(
                f"step {h} pushes the profile outside the admissible band")

    reference = apply_L(lam, w, axis=axis, resolution=resolution)

    diffs = []
    for h in steps:
        plus = _perturbed_profile(axis, lam, w, h)
        minus = _perturbed_profile(axis, lam, w, -h)
        h_plus = solve_torsion(plus, resolution).neumann
        h_minus = solve_torsion(minus, resolution).neumann
        diffs.append((h_plus - h_minus) / (2.0 * h))
    diffs = np.asarray(diffs)

    deviations = np.max(np.abs(diffs - reference.samples[None, :]), axis=1)
    if deviations.size >= 2 and deviations[1] > deviations[0]:
        raise AnalysisError(
            "finite-difference derivative of H is not converging toward the "
            f"linearized operator (deviations {deviations[:2]})")

    r = steps[-2] / steps[-1]
    extrap = (r ** 2 * diffs[-1] - diffs[-2]) / (r ** 2 - 1.0)
    # fit the convergence order on the steps still above the roundoff floor
    # (the finest steps bottom out on solver noise divided by 2h)
    good = deviations > max(1e-8, 50.0 * deviations.min())
    if np.count_nonzero(good) < 2:
        good = np.zeros_like(deviations, dtype=bool)
        good[:2] = True
    slope = float(np.polyfit(np.log(steps[good]), np.log(deviations[good]), 1)[0])
    return FDDerivativeTable(lam, axis, w, steps, deviations, extrap,
                             float(np.max(np.abs(extrap - reference.samples))), slope)


def _perturbed_profile(axis, lam, w, h):
    coeffs = h * w.coeffs.copy()
    coeffs[0] += lam
    return BoundaryProfile(axis, coeffs)
