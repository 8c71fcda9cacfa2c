"""Torsion problem on deformed tubes and its boundary flux.

Solves the pulled-back Poisson problem

    -Lap u = 1  in the reference tube,   u = 0  on t = 1,

for a single-angle boundary profile, extracts the Neumann data

    H(profile)(angle) = neumann_weight(angle) * du/dt(1, angle),

and measures how far the domain is from being a Serrin domain (constant
normal derivative).  The discretization lives in :mod:`serrin.discrete`;
everything here is deterministic.  A field is one solve with whichever
operator the caller passes: by default the matrix-free operator, solved by
GMRES preconditioned with the straight tube, and in the tests the assembled
oracle, solved by its band LU.

The derivative of the discrete H along profile perturbations is exact: the
operator is linear in the Laplace-Beltrami coefficients, so differentiating
A(phi) u = -1 gives A du = -(dA) u, solved with the operator that produced
u.
"""

from dataclasses import dataclass, field

import numpy as np

from .discrete import GRADING, HALF_WIDTH, MatrixFreeTubeOperator, TubeGrid, _finite
from .errors import ConfigError, NumericalError
from .geometry import (BoundaryProfile, _as_int, boundary_area_element,
                       laplacian_coefficient_values, neumann_weight, neumann_weight_values)

__all__ = ["TorsionField", "solve_torsion", "torsion_field", "check_residual", "flux_tangents",
           "serrin_defect", "mean_flux", "parse_resolution"]

RESIDUAL_CAP = 1e-10
# imaginary step of the coefficient derivatives: a complex step has no
# subtractive cancellation, so any step far below the roundoff level works
COMPLEX_STEP = 1e-30


def parse_resolution(resolution):
    """Accept (n_t, m_angles) pairs of integers (integral floats too) or 'NxM' strings.

    Anything else, a pair holding 48.5 or NaN included, is a
    :class:`ConfigError` naming the input.
    """
    if isinstance(resolution, str):
        try:
            n_t, m = (int(p) for p in resolution.lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse resolution {resolution!r}, expected 'NxM'")
        return n_t, m
    try:
        pair = tuple(map(_as_int, resolution))
    except TypeError:           # not iterable
        pair = ()
    if len(pair) != 2 or None in pair:
        raise ConfigError(f"resolution must be two integers (n_t, m_angles), got {resolution!r}")
    return pair


@dataclass
class TorsionField:
    """Discrete torsion solution on one profile.

    ``u`` is the interior field on the tensor grid (t nodes x angle nodes);
    the boundary row t = 1 is identically zero by construction.  On a grid
    of symmetry order j the angle nodes, and so ``u`` and ``neumann``, cover
    the sector [0, 2 pi/j).  ``krylov_iterations`` is the GMRES iteration
    count of the solve, 0 for a direct one.
    """

    profile: BoundaryProfile
    t: np.ndarray
    angles: np.ndarray
    u: np.ndarray
    neumann: np.ndarray
    residual: float
    meta: dict = field(default_factory=dict)
    krylov_iterations: int = 0


def solve_torsion(profile, resolution=(64, 64)):
    """Solve the torsion problem for one admissible profile.

    Parameters
    ----------
    profile : BoundaryProfile
        Single-angle boundary profile; validated for admissibility.
    resolution : (int, int) or 'NxM'
        Radial times angular node counts, at least 16 x 16.

    Each call builds its own :class:`~serrin.discrete.MatrixFreeTubeOperator`;
    see :func:`torsion_field` for the residual check and for other
    operators.
    """
    n_t, m = parse_resolution(resolution)
    if n_t < 16 or m < 16:
        raise ConfigError(f"resolution must be at least 16x16, got {n_t}x{m}")
    profile.validate()
    return torsion_field(MatrixFreeTubeOperator(TubeGrid(profile.axis, n_t, m), profile))


def torsion_field(operator):
    """Torsion field of the profile an operator was built for.

    ``operator`` is a :class:`~serrin.discrete.MatrixFreeTubeOperator`,
    for a straight tube a :class:`~serrin.discrete.StraightTubeOperator`,
    or in the tests the assembled oracle
    :class:`~serrin.discrete.TubeOperator`, whose band LU its first solve
    here builds from the COO entries unless an earlier one did; its
    :class:`~serrin.discrete.TubeGrid` sets the discretization.  The scaled residual of the solve is recorded and must
    stay below 1e-10 (:func:`check_residual`).  ``meta`` records the grid's
    resolution, the radial stencil's half width and grading and the angle
    coupling, which is always ``"fourier"``.
    """
    u = operator.solve(-1.0, 0.0)
    residual = operator.scaled_residual(u, -1.0, 0.0)
    check_residual("torsion solve", residual, operator)
    du = operator.t_derivative_trace(u, 0.0)
    h_vals = neumann_weight(operator.profile, operator.angles) * du
    return TorsionField(operator.profile, operator.t, operator.angles, u, h_vals, residual,
                        meta={"resolution": operator.grid.resolution,
                              "half_width": HALF_WIDTH, "beta": GRADING,
                              "angle_scheme": "fourier"},
                        krylov_iterations=getattr(operator, "iterations", 0))


def check_residual(what, residual, operator):
    """Raise :class:`NumericalError` if a solve's scaled residual exceeds ``RESIDUAL_CAP``.

    Its ``details`` hold the residual, the cap, the operator's ``context``
    and, for a Krylov solve, its iteration count.
    """
    if residual > RESIDUAL_CAP:
        err = NumericalError(f"{what} residual {residual:.3e} exceeds {RESIDUAL_CAP:.0e}")
        err.details = {"residual": residual, "cap": RESIDUAL_CAP, **operator.context}
        if hasattr(operator, "iterations"):
            err.details["iterations"] = operator.iterations
        raise err


def flux_tangents(operator, fld, modes):
    """Derivatives of the Neumann samples along the profile directions cos(m .).

    ``fld`` is :func:`torsion_field` of ``operator``.  Column i of the
    (M, len(modes)) result is dH/dc_m for m = modes[i]:

        dH = dw * u_t(1) + w * du_t(1),   A du = -(dA) u,
        (dA) u = dg^tt u_tt + 2 dg^ta u_ta + dg^aa u_aa + dc_t u_t,

    where phi, phi', phi'' move along cos(m a), -m sin(m a), -m^2 cos(m a).
    The coefficients depend pointwise on (phi, phi', phi''), so three
    complex steps give their partials, and each direction combines them.
    All directions go through the operator's ``solve_interior``: one
    back-solve on an assembled operator's factorization, one Krylov solve
    per direction on a matrix-free one.
    """
    prof, ang, h = operator.profile, operator.angles, COMPLEX_STEP
    u_t, u_tt, u_aa, u_ta = operator.derivatives(fld.u, 0.0)
    values = (prof.value(ang), prof.slope(ang), prof.curvature(ang))
    # partials of (A u) and of w in phi, phi' and phi'', node by node
    partial_au, partial_w = [], []
    for i in range(3):
        stepped = [v + 1j * h if j == i else v for j, v in enumerate(values)]
        gtt, gta, gaa, _, ct = laplacian_coefficient_values(prof.axis, operator.t[:, None],
                                                            *stepped)
        au = gtt * u_tt + 2.0 * gta * u_ta + gaa * u_aa + ct * u_t
        partial_au.append(np.imag(au) / h)
        partial_w.append(np.imag(neumann_weight_values(prof.axis, *stepped[:2])) / h)
    rhs = np.empty((fld.u.size, len(modes)), order="F")
    dw = np.empty((len(modes), ang.size))
    for i, m in enumerate(modes):
        direction = (np.cos(m * ang), -m * np.sin(m * ang), -m * m * np.cos(m * ang))
        rhs[:, i] = -sum(p * d for p, d in zip(partial_au, direction)).ravel()
        dw[i] = sum(p * d for p, d in zip(partial_w, direction))
    du = _finite(operator.solve_interior(rhs), operator.context, "tangent solve")
    du_trace = np.array([operator.t_derivative_trace(col.reshape(fld.u.shape), 0.0)
                         for col in du.T])
    u_trace = operator.t_derivative_trace(fld.u, 0.0)
    return (dw * u_trace + neumann_weight(prof, ang) * du_trace).T


def mean_flux(fld):
    """Area-weighted mean of the boundary flux.

    This is the mean that satisfies the divergence identity
    mean_flux * boundary_area = -volume exactly in the continuum.
    """
    w = boundary_area_element(fld.profile, fld.angles)
    return float(np.sum(w * fld.neumann) / np.sum(w))


def serrin_defect(fld):
    """Max deviation of the flux from its angular mean.

    Zero exactly when the discrete domain is a Serrin domain; the plain
    angular mean is used, matching how the branch equations are projected.
    """
    return float(np.max(np.abs(fld.neumann - np.mean(fld.neumann))))
