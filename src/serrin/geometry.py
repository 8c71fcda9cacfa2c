"""Geometry of tube domains around a core circle in the round three-sphere.

The three-sphere is swept out by the family of flat tori

    (theta, eta, xi) -> (sin(theta) cos(eta), sin(theta) sin(eta),
                         cos(theta) cos(xi),  cos(theta) sin(xi)),

with theta in [0, pi/2]; the round metric pulls back to

    g = d theta^2 + sin^2(theta) d eta^2 + cos^2(theta) d xi^2.

A boundary profile phi on one of the two circle factors defines the tube
{theta < phi(angle)}, which is mapped onto the fixed reference domain
{0 <= t < 1} by theta = t * phi(angle).  This module carries the
Laplace-Beltrami coefficients of the pulled-back metric on the reference
domain, volume and boundary-area quadrature, and the outward-normal weight
that converts a radial derivative at t = 1 into a true normal derivative.

Conventions: the "active" angle is the one the profile depends on (xi for
``Axis.XI``, eta for ``Axis.ETA``); the other ("passive") angle is cyclic and
never enters the data.  All angles and lengths are radians.
"""

import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
import numpy.polynomial.legendre  # noqa: F401  (numpy loads it on first use otherwise)

from .errors import ConfigError, DomainValidationError
from .fourier import CosineSeries, angle_grid

__all__ = [
    "Axis", "ModeIndex", "BoundaryProfile", "volume", "boundary_area",
    "neumann_weight", "neumann_weight_values", "laplacian_coefficients",
    "laplacian_coefficient_values", "HALF_PI",
]

HALF_PI = 0.5 * np.pi
# BoundaryProfile.validate samples a profile on at least this many angles,
# and on PROFILE_CHECK_PER_MODE per retained frequency when that is more
PROFILE_CHECK_POINTS = 512
PROFILE_CHECK_PER_MODE = 8


def _as_int(value):
    """``value`` as an int if it is an integer, an integral float included, else None."""
    try:
        return int(value) if int(value) == value else None
    except (TypeError, ValueError, OverflowError):
        return None


class Axis(str, Enum):
    """Which circle factor the profile (and boundary data) depends on."""

    XI = "xi"
    ETA = "eta"

    @classmethod
    def coerce(cls, axis):
        """Accept an Axis or its name in any case."""
        if isinstance(axis, cls):
            return axis
        try:
            return cls(str(axis).lower())
        except ValueError:
            raise DomainValidationError(f"unknown axis {axis!r}, expected 'xi' or 'eta'")


@dataclass(frozen=True)
class ModeIndex:
    """One pure angular frequency on one axis.

    ``n`` is the frequency of cos(n * angle); the axis selects which of the
    two eigenvalue families the mode belongs to.  Bifurcation analysis is
    only meaningful for n >= 2.
    """

    axis: Axis
    n: int

    def __post_init__(self):
        object.__setattr__(self, "axis", Axis.coerce(self.axis))
        n = _as_int(self.n)
        if n is None or n < 0:
            raise DomainValidationError(f"mode frequency must be an integer >= 0, got {self.n!r}")
        object.__setattr__(self, "n", n)

    @classmethod
    def coerce(cls, mode):
        """Accept a ModeIndex or an (axis, n) pair."""
        if isinstance(mode, cls):
            return mode
        if isinstance(mode, (tuple, list)) and len(mode) == 2:
            return cls(*mode)
        raise DomainValidationError(f"cannot interpret {mode!r} as a mode index")

    @property
    def eps_delta(self):
        """Frequencies (eps, delta) on the (collapsing, surviving) circles.

        eps multiplies 1/sin^2(t phi) in the radial mode equation and delta
        multiplies 1/cos^2(t phi); an eta-mode oscillates on the circle that
        collapses on the tube core, a xi-mode on the one that survives.
        """
        return (self.n, 0) if self.axis is Axis.ETA else (0, self.n)


class BoundaryProfile:
    """Admissible boundary profile phi on one circle factor.

    The cosine coefficients are authoritative; collocation values are
    evaluated from them (they agree with a discrete cosine transform of the
    samples whenever the sample count resolves every retained mode).
    Admissibility means 0 < phi < pi/2 everywhere, so the tube stays inside
    the smooth part of the torus sweep; the constructor checks it
    (:meth:`validate`).
    """

    def __init__(self, axis, coeffs):
        self.axis = Axis.coerce(axis)
        self.series = coeffs if isinstance(coeffs, CosineSeries) else CosineSeries(coeffs)
        self.validate()

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, axis, lam):
        return cls(axis, [float(lam)])

    @classmethod
    def perturbed(cls, axis, lam, mode, amplitude):
        """lam + amplitude * cos(mode * angle); mode 0 shifts the radius."""
        if mode < 0:
            raise DomainValidationError(f"mode frequency must be >= 0, got {mode}")
        c = np.zeros(mode + 1)
        c[0] = lam
        c[mode] += amplitude
        return cls(axis, c)

    # -- evaluation ----------------------------------------------------
    @property
    def coeffs(self):
        return self.series.coeffs

    @property
    def n_modes(self):
        return self.series.n_modes

    @property
    def is_constant(self):
        return self.series.coeffs.size == 1 or not np.any(self.series.coeffs[1:])

    def value(self, angle):
        return self.series(angle)

    def slope(self, angle):
        return self.series.derivative(angle)

    def curvature(self, angle):
        return self.series.second_derivative(angle)

    def collocation(self, m_angles):
        return self.series.samples(m_angles)

    def validate(self):
        """Check 0 < phi < pi/2 on a grid fine enough for the truncation.

        The grid has ``PROFILE_CHECK_POINTS`` angles, or
        ``PROFILE_CHECK_PER_MODE`` per retained frequency when that is more.
        """
        vals = self.collocation(max(PROFILE_CHECK_POINTS,
                                    PROFILE_CHECK_PER_MODE * (self.n_modes + 1)))
        lo, hi = float(np.min(vals)), float(np.max(vals))
        # written so that a NaN sample fails it
        if not (lo > 0.0 and hi < HALF_PI):
            raise DomainValidationError(
                f"profile leaves the admissible band (0, pi/2): range [{lo:.6f}, {hi:.6f}]")

    # -- serialization --------------------------------------------------
    def to_json(self):
        return json.dumps({
            "axis": self.axis.value,
            "coeffs": [float(c) for c in self.coeffs],
            "n_modes": self.n_modes,
        })

    @classmethod
    def from_json(cls, text):
        """The profile of a JSON object ``{axis, coeffs[, n_modes]}``.

        Text that is not such an object, or whose coefficients are not
        numbers, raises :class:`DomainValidationError`.
        """
        try:
            data = json.loads(text)
            axis, coeffs = data["axis"], np.asarray(data["coeffs"], dtype=float)
            n_modes = int(data.get("n_modes", coeffs.size - 1))
        except (ValueError, TypeError, KeyError) as exc:
            raise DomainValidationError(
                f"profile JSON must be an object with axis and numeric coeffs: {exc!r}") from None
        prof = cls(axis, coeffs)
        if n_modes != prof.n_modes:
            raise DomainValidationError("n_modes field disagrees with coefficient count")
        return prof

    def __repr__(self):
        return f"BoundaryProfile(axis={self.axis.value}, coeffs={self.coeffs})"


def laplacian_coefficients(profile, t, angle):
    """Coefficients of the Laplace-Beltrami operator on the reference tube.

    For fields independent of the passive angle the operator reads

        L u = g^tt u_tt + 2 g^ta u_ta + g^aa u_aa + c_t u_t,

    (the first-order angular coefficient vanishes identically; this was
    derived from the divergence form, and the tests check every coefficient
    against the inverse of a finite-difference pullback of the round
    metric).  Returns (g^tt, g^ta, g^aa, g^bb, c_t), each broadcast over
    ``t`` x ``angle``.
    """
    t = np.asarray(t, dtype=float)[:, None]
    phi = np.asarray(profile.value(angle), dtype=float)[None, :]
    dphi = np.asarray(profile.slope(angle), dtype=float)[None, :]
    ddphi = np.asarray(profile.curvature(angle), dtype=float)[None, :]
    return laplacian_coefficient_values(profile.axis, t, phi, dphi, ddphi)


def laplacian_coefficient_values(axis, t, phi, dphi, ddphi):
    """:func:`laplacian_coefficients` from the values phi, phi', phi''.

    Purely elementwise on broadcastable arrays and free of casts, so complex
    inputs carry complex-step derivatives through it.
    """
    s, c = np.sin(t * phi), np.cos(t * phi)
    if axis is Axis.XI:
        axis_fac, wall_fac = s, c        # sin collapses on the axis
    else:
        axis_fac, wall_fac = c, s        # roles swap: eta-circle collapses
    g_tt = ((t * dphi) ** 2 + wall_fac ** 2) / (phi * wall_fac) ** 2
    g_ta = -t * dphi / (phi * wall_fac ** 2)
    g_aa = 1.0 / wall_fac ** 2
    g_bb = 1.0 / axis_fac ** 2
    rho = phi * s * c
    # c_t * rho = 2 t phi'^2 axis_fac/(phi wall_fac) + (c^2 - s^2)
    #             - t phi'' axis_fac/wall_fac
    ct = (2.0 * t * dphi ** 2 * axis_fac / (phi * wall_fac)
          + (c * c - s * s) - t * ddphi * axis_fac / wall_fac) / rho
    return g_tt, g_ta, g_aa, g_bb, ct


@lru_cache(maxsize=32)        # one entry per order asked for, a few in practice
def _gauss_rule(quad_order):
    """Gauss-Legendre nodes and weights on (0, 1), once per order, read-only."""
    tq, tw = np.polynomial.legendre.leggauss(quad_order)
    tq = 0.5 * (tq + 1.0)       # open rule on (0,1): no node on the axis
    tw = 0.5 * tw
    tq.flags.writeable = tw.flags.writeable = False
    return tq, tw


def _quad_angles(profile, quad_order):
    if quad_order < 2:
        raise ConfigError(f"quad_order must be >= 2, got {quad_order}")
    return angle_grid(max(32, 4 * (profile.n_modes + 1), quad_order))


def volume(profile, quad_order=40):
    """Volume of the tube by tensor-product quadrature of the density.

    Gauss-Legendre in t (open: the degenerate axis is never sampled) and a
    periodic trapezoid in the active angle, times 2*pi for the passive one.
    A constant profile lam gives 2 pi^2 sin^2(lam) exactly.
    """
    phi = profile.value(_quad_angles(profile, quad_order))[None, :]
    tq, tw = _gauss_rule(quad_order)
    dens = phi * np.sin(tq[:, None] * phi) * np.cos(tq[:, None] * phi)
    return float(tw @ dens.mean(axis=1)) * (2.0 * np.pi) ** 2


def boundary_area(profile, quad_order=40):
    """Area of the boundary torus t = 1.

    The induced area element is sin(phi) sqrt(phi'^2 + cos^2 phi) for a
    xi-profile (sin and cos swap for eta); the constant case gives
    4 pi^2 sin(lam) cos(lam).  ``quad_order`` sets only the angle grid, as
    for :func:`volume`.
    """
    ang = _quad_angles(profile, quad_order)
    return float(np.mean(boundary_area_element(profile, ang))) * (2.0 * np.pi) ** 2


def boundary_area_element(profile, angle):
    """Pointwise boundary area density (per unit square angle)."""
    phi = profile.value(angle)
    dphi = profile.slope(angle)
    if profile.axis is Axis.XI:
        return np.sin(phi) * np.sqrt(dphi ** 2 + np.cos(phi) ** 2)
    return np.cos(phi) * np.sqrt(dphi ** 2 + np.sin(phi) ** 2)


def neumann_weight(profile, angle):
    """Factor converting du/dt at t=1 into the outward normal derivative.

    The boundary is the level set of f(t, .) = t, so du/dnu = |grad f| du/dt
    once tangential derivatives drop (the torsion solution vanishes on the
    boundary).  For a xi-profile

        w = sqrt(phi'^2 + cos^2 phi) / (phi cos phi),

    with sin in place of cos for an eta-profile; a constant profile gives
    1/lam, the straight-tube normal 1/lam * d/dt.
    """
    return neumann_weight_values(profile.axis, profile.value(angle), profile.slope(angle))


def neumann_weight_values(axis, phi, dphi):
    """:func:`neumann_weight` from the values phi and phi'; complex-step safe."""
    wall = np.cos(phi) if axis is Axis.XI else np.sin(phi)
    return np.sqrt(dphi ** 2 + wall ** 2) / (phi * wall)
