"""Torsion problem on deformed tubes and its boundary flux.

Solves the pulled-back Poisson problem

    -Lap u = 1  in the reference tube,   u = 0  on t = 1,

for a single-angle boundary profile, extracts the Neumann data

    H(profile)(angle) = neumann_weight(angle) * du/dt(1, angle),

and measures how far the domain is from being a Serrin domain (constant
normal derivative).  The discretization lives in :mod:`serrin.discrete`;
everything here is deterministic, one direct sparse solve per field.
"""

from dataclasses import dataclass, field

import numpy as np

from .discrete import GRADING, HALF_WIDTH, TubeOperator
from .errors import ConfigError, NumericalError
from .geometry import BoundaryProfile, boundary_area_element, neumann_weight

__all__ = ["TorsionField", "solve_torsion", "serrin_defect", "mean_flux",
           "parse_resolution"]

RESIDUAL_CAP = 1e-10


def parse_resolution(resolution):
    """Accept (n_t, m_angles) pairs or 'NxM' strings."""
    if isinstance(resolution, str):
        try:
            n_t, m = (int(p) for p in resolution.lower().split("x"))
        except ValueError:
            raise ConfigError(f"cannot parse resolution {resolution!r}, expected 'NxM'")
        return n_t, m
    n_t, m = resolution
    return int(n_t), int(m)


@dataclass
class TorsionField:
    """Discrete torsion solution on one profile.

    ``u`` is the interior field on the tensor grid (t nodes x angle nodes);
    the boundary row t = 1 is identically zero by construction.
    """

    profile: BoundaryProfile
    t: np.ndarray
    angles: np.ndarray
    u: np.ndarray
    neumann: np.ndarray
    residual: float
    meta: dict = field(default_factory=dict)


def solve_torsion(profile, resolution=(64, 64), angle_scheme="fourier"):
    """Solve the torsion problem for one admissible profile.

    Parameters
    ----------
    profile : BoundaryProfile
        Single-angle boundary profile; validated for admissibility.
    resolution : (int, int) or 'NxM'
        Radial times angular node counts, at least 16 x 16.
    angle_scheme : {'fourier', 'fd2'}
        Angle coupling of the assembled operator (see :mod:`serrin.discrete`).

    Each call assembles and factorizes its own operator.  The scaled
    residual of the direct solve is recorded and must stay below 1e-10,
    else a :class:`NumericalError` is raised.
    """
    n_t, m = parse_resolution(resolution)
    if n_t < 16 or m < 16:
        raise ConfigError(f"resolution must be at least 16x16, got {n_t}x{m}")
    profile.validate()
    operator = TubeOperator(profile, n_t, m, angle_scheme=angle_scheme)
    u = operator.solve(-1.0, 0.0)
    residual = operator.scaled_residual(u, -1.0, 0.0)
    if residual > RESIDUAL_CAP:
        raise NumericalError(
            f"direct solve residual {residual:.3e} exceeds {RESIDUAL_CAP:.0e}")
    du = operator.t_derivative_trace(u, 0.0)
    h_vals = neumann_weight(profile, operator.angles) * du
    return TorsionField(profile, operator.t, operator.angles, u, h_vals, residual,
                        meta={"resolution": (n_t, m), "half_width": HALF_WIDTH,
                              "beta": GRADING, "angle_scheme": angle_scheme})


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
