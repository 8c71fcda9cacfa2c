"""Closed-form torsion solution on straight tubes.

For a constant profile lam the torsion function is radial and explicit,

    v(theta) = (1/2) ln(cos(theta)/cos(lam)),   0 <= theta <= lam,

with boundary flux dv/dtheta(lam) = -(1/2) tan(lam).  Every discrete solver
in the package is validated against these formulas.
"""

import numpy as np

from .errors import DomainValidationError
from .geometry import HALF_PI

__all__ = ["radial_torsion", "radial_flux"]


def _check(lam, theta):
    lam = float(lam)
    if not 0.0 < lam < HALF_PI:
        raise DomainValidationError(f"lambda must lie in (0, pi/2), got {lam}")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > lam):
        raise DomainValidationError(f"theta must lie in [0, lambda={lam}], got {theta}")
    return lam, theta


def radial_torsion(lam, theta):
    """Radial torsion value v(theta) on the tube of radius ``lam``.

    Evaluated as (ln cos(theta) - ln cos(lam))/2 rather than through the
    quotient, which stays accurate as lam approaches pi/2.
    """
    lam, theta = _check(lam, theta)
    return 0.5 * (np.log(np.cos(theta)) - np.log(np.cos(lam)))


def radial_flux(lam):
    """Constant Neumann value -(1/2) tan(lam) of the straight tube.

    Also equals -volume/boundary_area of the tube, the mean-flux identity
    the geometry module is cross-checked against.
    """
    lam = float(lam)
    if not 0.0 < lam < HALF_PI:
        raise DomainValidationError(f"lambda must lie in (0, pi/2), got {lam}")
    return -0.5 * np.tan(lam)
