"""Continuation of bifurcating branches of perturbed Serrin domains.

At each zero lambda_j of an eigenvalue curve (j >= 2) a branch of
nonconstant profiles with constant boundary flux bifurcates off the
straight tubes.  The branch is parameterized by the amplitude s of its
kernel mode: the profile ansatz is

    phi_s = lambda(s) + s * (cos(j * angle) + w_s),    P_j w_s = 0.

The straight tubes are invariant under rotations of the angle, so the flux
map sends the even 2 pi/j-periodic profiles, span{cos(kj .)}, into
themselves; that is the space in which such bifurcations have a
one-dimensional kernel (Schlenk and Sicbaldi, Adv. Math. 230, 2012; Fall,
Minlend and Weth, Arch. Ration. Mech. Anal. 223, 2017).  The branch is
solved there: for each amplitude the unknowns (lambda, the coefficients of
s*w_s on the modes 2j, 3j, ... <= truncation) solve the projected equations

    P_m [ H(phi_s) ] = 0   for m = j, 2j, ... <= truncation,

by Newton iteration, with every field on the sector [0, 2 pi/j) of the
angle grid (a :class:`~serrin.discrete.TubeGrid` of symmetry order j).  On
a grid of order 1 the same solver keeps every mode 1..truncation: that is
the full-grid solve, which the tests keep as the oracle.

Near lambda_j the linearized flux map is the mode-diagonal L_lambda plus
O(s) (Crandall and Rabinowitz, J. Funct. Anal. 8, 1971), so each point
starts with chord steps on the leading-order Lyapunov-Schmidt Jacobian,
built from the discrete eigenvalues of the straight tube lambda_j without
a PDE solve (the chord method: Kelley, *Iterative Methods for Linear and
Nonlinear Equations*, SIAM 1995, section 5.4).  A chord step that does not
contract the residual by ``CHORD_CONTRACTION`` is discarded, and the point
goes on with the exact tangent-linear Jacobian of the discrete flux map
(:func:`serrin.torsion.flux_tangents`), built once at the current iterate.
The mean flux is left free (a constant flux offset is absorbed by lambda,
so the mean-mode equation and unknown are both dropped).  Before tracing,
the bifurcation hypotheses are certified numerically on the full grid,
every mode up to the truncation: trivial branch, one-dimensional kernel,
spectral gap, and transversal eigenvalue crossing, all from one straight
tube lambda_j.
"""

from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .discrete import MatrixFreeTubeOperator, StraightTubeOperator, TubeGrid
from .errors import AnalysisError, DomainValidationError, NumericalError
from .fourier import CosineSeries, cosine_coefficients
from .geometry import (BoundaryProfile, ModeIndex, _as_int, boundary_area,
                       laplacian_coefficient_values, volume)
from .linearize import apply_L
from .spectrum import find_lambda_n, sigma_prime_closed_form
from .torsion import (COMPLEX_STEP, flux_tangents, mean_flux, parse_resolution, serrin_defect,
                      torsion_field)

__all__ = ["CRCertificate", "BranchPoint", "BranchRun", "BranchReport",
           "check_cr_hypotheses", "trace_branch", "branch_report"]

SPHERE_VOLUME = 2.0 * np.pi ** 2
# a chord step must cut the max-norm residual to this fraction of its
# previous value, else the point builds the exact tangent Jacobian; with
# 0.3 slow chord steps used up MAX_NEWTON on the eta branch at s = 0.15
CHORD_CONTRACTION = 0.1
# the certificate: a discrete eigenvalue below KERNEL_TOL is in the kernel,
# and every other one must exceed GAP_FLOOR
KERNEL_TOL = 1e-6
GAP_FLOOR = 1e-2
# a branch point is solved when the max-norm residual of its projected
# equations is at most NEWTON_TOL, within MAX_NEWTON accepted steps
NEWTON_TOL = 1e-10
MAX_NEWTON = 12


@dataclass(frozen=True)
class CRCertificate:
    """Numerically certified bifurcation hypotheses at one (axis, j)."""

    mode: ModeIndex
    lambda_j: float
    trivial_defect: float        # worst defect of the straight tubes sampled
    kernel_sigma: float          # discrete eigenvalue of the kernel mode
    kernel_dimension: int        # modes below the kernel tolerance
    spectral_gap: float          # min |sigma_m| over the other modes
    transversality_slope: float  # d sigma_j / d lambda at lambda_j, discrete
    closed_form_slope: float
    passed: bool
    details: dict = field(default_factory=dict)


def _discrete_sigmas(operator, modes):
    """sigma_m for m in ``modes`` at a straight-tube operator's radius, NaN at the other m.

    The operator is mode-diagonal: one harmonic extension of the sum of the
    cos(m .) gives them all.  On a grid of order j, ``modes`` are multiples of j.
    """
    modes = list(modes)
    data = np.zeros(max(modes) + 1)
    data[modes] = 1.0
    la = apply_L(operator.profile.coeffs[0], CosineSeries(data), axis=operator.grid.axis,
                 operator=operator)
    out = np.full(data.size, np.nan)
    out[modes] = la.series.coeffs[modes]
    return out


def _transversality_slope(operator, j):
    """d sigma_j / d lambda of the discrete operator, at a straight-tube operator's radius.

    sigma_j = q tau - 1/(2 cos^2 lambda), q = tan(lambda)/(2 lambda), with
    tau the mode-j trace coefficient of the extension v of cos(j .).  A dv =
    -(d_lambda A) v, zero Dirichlet data, with the coefficient derivatives by
    complex step as in :func:`serrin.torsion.flux_tangents`; both solves use
    the operator's factors.  Then d sigma_j = q' tau + q dtau - sin/cos^3.
    """
    lam, h = float(operator.profile.coeffs[0]), COMPLEX_STEP
    bc = np.cos(j * operator.angles)
    v = operator.solve(0.0, bc)
    v_t, v_tt, v_aa, _ = operator.derivatives(v, bc)
    gtt, _, gaa, _, ct = laplacian_coefficient_values(operator.grid.axis, operator.t[:, None],
                                                      lam + 1j * h, 0.0, 0.0)
    dv = operator.solve(-np.imag(gtt * v_tt + gaa * v_aa + ct * v_t) / h, 0.0)
    tau, dtau = (cosine_coefficients(operator.t_derivative_trace(f, data), j,
                                     operator.grid.symmetry)[0][j]
                 for f, data in ((v, bc), (dv, 0.0)))
    q = np.tan(lam) / (2.0 * lam)
    dq = 1.0 / (2.0 * lam * np.cos(lam) ** 2) - q / lam
    return float(dq * tau + q * dtau - np.sin(lam) / np.cos(lam) ** 3)


def _integer(name, value):
    """``value`` as an int (:func:`~serrin.geometry._as_int`), else a DomainValidationError."""
    n = _as_int(value)
    if n is None:
        raise DomainValidationError(f"{name} must be an integer, got {value!r}")
    return n


def _check_truncation(mode, truncation, resolution):
    """The truncation as an int, if it is one in [j, M/2)."""
    truncation = _integer("truncation", truncation)
    m_angles = resolution[1]
    if truncation < mode.n:
        raise DomainValidationError(
            f"truncation {truncation} is below the kernel mode {mode.n}")
    if truncation >= m_angles // 2:
        raise DomainValidationError(
            f"truncation {truncation} reaches the Nyquist mode {m_angles // 2} of "
            f"{m_angles} angle nodes, whose discrete eigenvalue is 0; it must stay "
            f"below {m_angles // 2}")
    return truncation


def check_cr_hypotheses(mode, truncation=16, resolution=(64, 64)):
    """Certify the simple-eigenvalue bifurcation hypotheses at lambda_j.

    Checks, in order: (i) the straight tubes near lambda_j have constant
    flux through the PDE solver (trivial branch); (ii) exactly one discrete
    eigenvalue of the linearized map among modes <= truncation lies below
    ``KERNEL_TOL``, namely mode j; (iii) every other eigenvalue stays beyond
    ``GAP_FLOOR`` (codimension-one range); (iv) the kernel eigenvalue
    crosses zero transversally, with the sign of the closed-form slope; the
    discrete slope is exact (:func:`_transversality_slope`).
    A truncation that is no integer (an integral float is one), one below
    j, which cannot see the kernel mode, or one at or above M/2, the
    Nyquist mode of the M angle nodes, whose discrete eigenvalue is
    exactly 0, raises :class:`DomainValidationError` before any solve.
    Three mode-diagonal :class:`~serrin.discrete.StraightTubeOperator` on
    one full :class:`~serrin.discrete.TubeGrid` do every solve: (i) at
    0.95, 1.05 and 1 times lambda_j, and the one at lambda_j gives every
    sigma_m from one harmonic extension and the slope.  Any failure raises
    :class:`AnalysisError` naming the item; its ``details`` hold lambda_j,
    the resolution, the truncation, the trivial defect and the ``sigmas``
    computed so far.
    """
    mode = ModeIndex.coerce(mode)
    n_t, m_angles = parse_resolution(resolution)
    truncation = _check_truncation(mode, truncation, (n_t, m_angles))
    root = find_lambda_n(mode)
    lam_j = root.lambda_n
    details = {"lambda_j": lam_j, "resolution": (n_t, m_angles), "truncation": truncation,
               "trivial_defect": None, "sigmas": []}

    def failure(message):
        err = AnalysisError(message)
        err.details = details
        return err

    grid = TubeGrid(mode.axis, n_t, m_angles)
    trivial = 0.0
    for factor in (0.95, 1.05):
        trivial = max(trivial, serrin_defect(torsion_field(
            StraightTubeOperator(grid, factor * lam_j))))
    # one operator at lambda_j serves the trivial-branch solve, the sigmas and the slope
    op_j = StraightTubeOperator(grid, lam_j)
    trivial = details["trivial_defect"] = max(trivial, serrin_defect(torsion_field(op_j)))
    if trivial > 1e-10:
        raise failure(f"hypothesis (i) trivial branch: straight-tube defect {trivial:.3e}")

    sig = _discrete_sigmas(op_j, range(truncation + 1))
    details["sigmas"] = sig.tolist()
    below = np.flatnonzero(np.abs(sig) < KERNEL_TOL)
    if below.size != 1 or below[0] != mode.n:
        raise failure(
            f"hypothesis (ii) kernel: modes {below.tolist()} below {KERNEL_TOL:.0e}, "
            f"expected exactly [{mode.n}]")
    others = np.delete(np.abs(sig), mode.n)
    gap = float(np.min(others))
    if gap <= GAP_FLOOR:
        raise failure(f"hypothesis (iii) range: spectral gap {gap:.3e} <= {GAP_FLOOR:.0e}")

    slope = _transversality_slope(op_j, mode.n)
    closed = sigma_prime_closed_form(root)
    if slope == 0.0 or np.sign(slope) != np.sign(closed):
        raise failure(
            f"hypothesis (iv) transversality: discrete slope {slope:.3e} vs "
            f"closed form {closed:.3e}")

    return CRCertificate(mode, lam_j, trivial, float(sig[mode.n]), int(below.size),
                         gap, slope, closed, True,
                         details={"sigmas": details["sigmas"],
                                  "resolution": details["resolution"],
                                  "truncation": truncation})


@dataclass
class BranchPoint:
    """One continued point phi_s = lambda_s + s (cos(j.) + w_s)."""

    mode: ModeIndex
    s: float
    lam: float
    w: CosineSeries              # kernel-orthogonal correction, amplitude-normalized
    profile: BoundaryProfile
    defect: float
    newton_iters: int            # accepted Newton steps, chord or tangent
    tangent_jacobians: int       # exact tangent Jacobians built: 0 or 1
    neumann: np.ndarray          # on the full angle grid
    volume: float
    area: float
    mean_flux: float             # area-weighted, from torsion.mean_flux
    krylov_iterations: int       # GMRES iterations of the accepted torsion solve
    sine_residual: float         # sine content of the flux, a symmetry diagnostic

    @property
    def kernel_orthogonality(self):
        """|P_j w_s|; structurally zero for solved points."""
        return abs(self.w.coefficient(self.mode.n))

    @property
    def divergence_gap(self):
        """|area-weighted mean flux * area + volume|."""
        return abs(self.mean_flux * self.area + self.volume)


@dataclass
class BranchRun:
    """Ordered branch points with the settings that produced them."""

    mode: ModeIndex
    points: list
    settings: dict
    termination: str
    certificate: CRCertificate


def _equation_modes(truncation, grid):
    """Frequencies of the projected equations: the multiples of the grid's order."""
    return np.arange(grid.symmetry, truncation + 1, grid.symmetry)


def _profile_from_state(mode, x, s, truncation, grid):
    """x = (lambda, the coefficients of the equation modes other than j, in order)."""
    modes = _equation_modes(truncation, grid)
    coeffs = np.zeros(truncation + 1)
    coeffs[0] = x[0]
    coeffs[modes[modes != mode.n]] = x[1:]
    coeffs[mode.n] = s
    return BoundaryProfile(mode.axis, coeffs)


def _project(values, truncation, grid):
    """Cosine coefficients of the equation modes from samples on the grid's angles."""
    j = grid.symmetry
    return cosine_coefficients(values, truncation, j)[0][j::j]


def _residual(mode, x, s, truncation, grid):
    """Projected flux equations at state x, their field and matrix-free operator."""
    profile = _profile_from_state(mode, x, s, truncation, grid)
    operator = MatrixFreeTubeOperator(grid, profile)
    fld = torsion_field(operator)
    return _project(fld.neumann, truncation, grid), fld, operator


def _jacobian(operator, fld, truncation, free_modes):
    """Exact Jacobian of the projected flux equations in (lambda, b_m)."""
    tangents = flux_tangents(operator, fld, [0] + free_modes)
    return np.column_stack([_project(col, truncation, operator.grid) for col in tangents.T])


def trace_branch(mode, s_max, n_steps, resolution=(64, 64), truncation=16,
                 certificate=None):
    """Trace the bifurcating branch up to amplitude ``s_max``.

    Amplitudes are the uniform grid k * s_max/n_steps.  Each point is
    solved by Newton iteration on the projected flux equations of the modes
    j, 2j, ... <= truncation from the secant predictor
    (:func:`_newton_solve`), to a max-norm residual of ``NEWTON_TOL`` in at
    most ``MAX_NEWTON`` accepted steps; the run's ``settings`` record both.
    Every field lies on the sector [0, 2 pi/j): the run builds one
    :class:`~serrin.discrete.TubeGrid` of symmetry order j, and every
    residual's matrix-free operator and its preconditioner are built on it.
    M/j must be an even integer, else a :class:`ConfigError` names the
    nearest valid M before the certificate runs; the truncation must lie in
    [j, M/2), as for :func:`check_cr_hypotheses`.  A ``certificate`` of
    another mode, an ``s_max`` that is not finite and nonzero, and an
    ``n_steps`` below 1 or not an integer (integral floats are) raise
    :class:`DomainValidationError` before any solve; a certificate at
    another resolution or truncation is accepted.  A point's ``neumann`` is
    the sector's flux repeated j times, the full angle grid.

    The straight tube lambda_j, built once on the sector grid, gives the
    s = 0 point and, from one harmonic extension, the discrete eigenvalues
    sigma_m(lambda_j).  A point's first steps are chord steps on the
    leading-order Jacobian J0(s), which holds those of the free modes and s
    times the certificate's transversality slope.  A chord step that does
    not cut the residual by ``CHORD_CONTRACTION`` is discarded; the point
    then builds the exact tangent of the discrete flux map at its current
    iterate, all of its columns solved with the matrix-free operator the
    residual there already built, and keeps it frozen.  A point whose
    iteration diverges, or whose line search cannot lower the residual in
    five halvings, is retried from the half-amplitude; a second failure
    raises :class:`NumericalError` with the run so far as ``partial_run``
    and the mode, failing amplitude, last good amplitude, resolution and
    truncation as ``details``, plus the failed Newton solve's own
    ``details`` under ``newton``.  Profiles leaving the admissible band
    terminate the run with a reason.
    """
    mode = ModeIndex.coerce(mode)
    if certificate is not None and certificate.mode != mode:
        theirs = certificate.mode
        raise DomainValidationError(
            f"certificate does not match the arguments: mode {mode.axis.value} {mode.n} "
            f"vs the certificate's {theirs.axis.value} {theirs.n}")
    resolution = parse_resolution(resolution)
    truncation = _check_truncation(mode, truncation, resolution)
    if not (isinstance(s_max, Real) and np.isfinite(s_max) and s_max != 0.0):
        raise DomainValidationError(f"s_max must be a finite nonzero number, got {s_max!r}")
    n_steps = _integer("n_steps", n_steps)
    if n_steps < 1:
        raise DomainValidationError(f"n_steps must be >= 1, got {n_steps}")
    grid = TubeGrid(mode.axis, *resolution, symmetry=mode.n)
    if certificate is None:
        certificate = check_cr_hypotheses(mode, truncation, resolution)
    lam_j = certificate.lambda_j
    settings = {"s_max": float(s_max), "n_steps": n_steps, "resolution": resolution,
                "truncation": truncation, "newton_tol": NEWTON_TOL, "max_newton": MAX_NEWTON}

    modes = _equation_modes(truncation, grid)
    op_j = StraightTubeOperator(grid, lam_j)
    sigmas = _discrete_sigmas(op_j, modes)
    x = np.concatenate([[lam_j], np.zeros(modes.size - 1)])
    points = [_make_point(mode, 0.0, x, torsion_field(op_j), 0, 0, resolution)]

    def newton(x0, amplitude):
        return _newton_solve(mode, x0, amplitude, truncation, grid, NEWTON_TOL,
                             MAX_NEWTON, sigmas, certificate.transversality_slope)

    x_prev = None
    termination = "completed"
    for k in range(1, n_steps + 1):
        s = k * s_max / n_steps
        pred = x if x_prev is None else 2.0 * x - x_prev
        try:
            try:
                x_new, fld, iters, tangents = newton(pred, s)
            except NumericalError:
                x_half = newton(x, s - 0.5 * s_max / n_steps)[0]
                x_new, fld, iters, tangents = newton(x_half, s)
        except NumericalError as exc:
            err = NumericalError(
                f"Newton failed at amplitude {s:.5f} even after step halving: {exc}")
            err.partial_run = BranchRun(mode, points, settings, "newton-failure",
                                        certificate)
            err.details = {"mode": [mode.axis.value, mode.n], "s": s,
                           "last_good_s": points[-1].s,
                           "resolution": settings["resolution"],
                           "truncation": settings["truncation"]}
            if getattr(exc, "details", None):
                err.details["newton"] = exc.details
            raise err
        except DomainValidationError as exc:
            termination = f"profile left the admissible band at s={s:.5f}: {exc}"
            break
        points.append(_make_point(mode, s, x_new, fld, iters, tangents, resolution))
        x_prev, x = x, x_new

    return BranchRun(mode, points, settings, termination, certificate)


def _chord_jacobian(mode, s, sigmas, slope, modes):
    """Leading-order Lyapunov-Schmidt Jacobian J0(s) of the projected equations.

    ``modes`` are the frequencies of the equations in order; the unknowns
    are lambda and the coefficients of the same modes but j, in order.  At
    the straight tube lambda_j the flux derivative along cos(m .) is
    sigma_m cos(m .), so equation m sees only its own coefficient b_m,
    and equation j, whose coefficient is pinned to s, sees lambda through
    s * d sigma_j / d lambda.  No PDE solve is needed.
    """
    modes = np.asarray(modes)
    free = np.flatnonzero(modes != mode.n)
    jac = np.zeros((modes.size,) * 2)
    jac[modes == mode.n, 0] = s * slope
    jac[free, np.arange(1, modes.size)] = np.take(sigmas, modes[free])
    return jac


def _newton_solve(mode, x0, s, truncation, grid, tol, max_iter, sigmas, slope):
    """Solve one branch point: (state, field, iterations, tangent Jacobians built).

    Every residual's operator is built on the :class:`~serrin.discrete.TubeGrid`
    ``grid``, and the equations and unknowns are those of the multiples of
    its symmetry order (:func:`_profile_from_state`): the modes j, 2j, ...
    on a grid of order j, every mode on a grid of order 1.

    ``sigmas`` are the discrete eigenvalues sigma_m(lambda_j), indexed by
    m, for the equation modes and ``slope`` is d sigma_j / d lambda there;
    they give the chord Jacobian (:func:`_chord_jacobian`).  A chord step
    is kept when it cuts max|res| to at most ``CHORD_CONTRACTION`` times its
    previous value.  Otherwise it is discarded, and the exact tangent
    Jacobian is built once, at the current iterate and from the operator
    and field its residual built, and stays frozen; each step on it takes
    a line search of up to five halvings.  The iteration count counts the
    accepted steps of either kind.  Every failure raises
    :class:`NumericalError` whose ``details`` hold s, the iteration count,
    the max-norm residual and the GMRES iteration count of the torsion
    solve of each accepted iterate, the Jacobian in use
    (``"chord"`` or ``"tangent"``) and, after an escalation, the
    contraction ratio of the chord step that triggered it.
    """
    modes = _equation_modes(truncation, grid)
    free_modes = [int(m) for m in modes if m != mode.n]
    x = x0.copy()
    res, fld, operator = _residual(mode, x, s, truncation, grid)
    jac = _chord_jacobian(mode, s, sigmas, slope, modes)
    kind, contraction, iters = "chord", None, 0
    history = [float(np.max(np.abs(res)))]
    krylov = [fld.krylov_iterations]

    def failure(message):
        err = NumericalError(message)
        err.details = {"s": s, "iterations": iters, "residuals": history,
                       "krylov_iterations": krylov, "jacobian": kind}
        if contraction is not None:
            err.details["contraction"] = contraction
        return err

    while history[-1] > tol:
        if iters == max_iter:
            raise failure(f"no convergence in {max_iter} iterations at s={s:.5f} "
                          f"(residual {history[-1]:.3e})")
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise failure(f"singular branch Jacobian at s={s:.5f}: {exc}")
        if kind == "chord":
            trial = _residual(mode, x + delta, s, truncation, grid)
            ratio = float(np.max(np.abs(trial[0]))) / history[-1]
            if not ratio <= CHORD_CONTRACTION:
                # discard the trial (a NaN residual too) and retake this
                # step on the tangent Jacobian
                kind, contraction = "tangent", ratio
                jac = _jacobian(operator, fld, truncation, free_modes)
                continue
            x = x + delta
            res, fld, operator = trial
        else:
            step = 1.0
            for _ in range(5):
                res_new, fld_new, _ = _residual(mode, x + step * delta, s, truncation, grid)
                if np.max(np.abs(res_new)) < history[-1]:
                    break
                step *= 0.5
            else:
                raise failure(f"line search at s={s:.5f}: five step halvings did not "
                              f"lower the residual {history[-1]:.3e}")
            x = x + step * delta
            res, fld = res_new, fld_new
        iters += 1
        history.append(float(np.max(np.abs(res))))
        krylov.append(fld.krylov_iterations)
    return x, fld, iters, int(kind == "tangent")


def _make_point(mode, s, x, fld, iters, tangents, resolution):
    prof = fld.profile
    if s != 0.0:
        w_coeffs = prof.coeffs.copy()
        w_coeffs[0] -= x[0]
        w_coeffs[mode.n] = 0.0
        w = CosineSeries(w_coeffs / s)
    else:
        w = CosineSeries([0.0])
    # the sector's nodes are the first M/j nodes of the full grid, so the
    # 2 pi/j-periodic flux on the full grid is the sector's repeated
    neumann = np.tile(fld.neumann, resolution[1] // fld.neumann.size)
    return BranchPoint(mode, float(s), float(x[0]), w, prof,
                       serrin_defect(fld), int(iters), int(tangents), neumann,
                       volume(prof), boundary_area(prof), mean_flux(fld),
                       int(fld.krylov_iterations), cosine_coefficients(neumann)[1])


@dataclass
class BranchReport:
    """Per-point summary of a branch run."""

    mode: ModeIndex
    rows: list
    volume_fraction_range: tuple
    max_defect: float
    max_divergence_gap: float
    termination: str


def branch_report(run):
    """Summarize a branch run: geometry, defects, leading Fourier content.

    The xi branches have volume fraction sin^2(lambda_j) (small tubes for
    large j); the eta branches approach the full sphere.  The lambda drift
    along the branch is reported as data, never asserted: its local shape
    near s = 0 is not part of the verified claims.
    """
    if not run.points:
        raise DomainValidationError("cannot report on an empty branch run")
    rows = []
    for p in run.points:
        lead = sorted(((abs(c), m) for m, c in enumerate(p.profile.coeffs[1:], start=1)),
                      reverse=True)[:3]
        rows.append({
            "s": p.s, "lambda": p.lam, "defect": p.defect,
            "volume": p.volume, "area": p.area,
            "volume_fraction": p.volume / SPHERE_VOLUME,
            "mean_flux": p.mean_flux,
            "divergence_gap": p.divergence_gap,
            "newton_iters": p.newton_iters,
            "tangent_jacobians": p.tangent_jacobians,
            "krylov_iterations": p.krylov_iterations,
            "sine_residual": p.sine_residual,
            "kernel_coefficient": p.profile.coeffs[p.mode.n]
                if p.mode.n < p.profile.coeffs.size else 0.0,
            "leading_modes": [(m, a) for a, m in lead if a > 0.0],
        })
    fracs = [r["volume_fraction"] for r in rows]
    return BranchReport(run.mode, rows, (min(fracs), max(fracs)),
                        max(r["defect"] for r in rows),
                        max(r["divergence_gap"] for r in rows), run.termination)
