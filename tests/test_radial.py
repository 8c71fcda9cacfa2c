import numpy as np
import pytest

from serrin.errors import DomainValidationError
from serrin.geometry import Axis, BoundaryProfile, boundary_area, volume
from serrin.radial import radial_flux, radial_torsion


def test_boundary_condition_and_positivity():
    assert radial_torsion(0.9, 0.9) == 0.0
    theta = np.linspace(0.0, 0.89, 50)
    assert np.all(radial_torsion(0.9, theta) > 0.0)


def test_explicit_value_at_pi_third():
    # v(0) = ln(1/cos(lam))/2 = (1/2) ln 2 when lam = pi/3
    assert np.isclose(radial_torsion(np.pi / 3, 0.0), 0.5 * np.log(2.0), rtol=1e-15)


def test_torsion_equation_residual_by_finite_differences():
    # -v'' - (cot - tan) v' = 1, checked with high-order differences
    lam, theta = np.pi / 4, np.pi / 6
    h = 1e-3
    stencil = np.array([-2, -1, 0, 1, 2]) * h + theta
    v = radial_torsion(lam, stencil)
    d1 = (v[0] - 8 * v[1] + 8 * v[3] - v[4]) / (12 * h)
    d2 = (-v[0] + 16 * v[1] - 30 * v[2] + 16 * v[3] - v[4]) / (12 * h ** 2)
    residual = -(d2 + (1.0 / np.tan(theta) - np.tan(theta)) * d1) - 1.0
    assert abs(residual) < 1e-8


def test_flux_values():
    assert np.isclose(radial_flux(np.pi / 4), -0.5, rtol=1e-15)
    assert -1e-3 < radial_flux(1e-3) < 0.0


@pytest.mark.parametrize("lam", [0.3, 0.7, 1.2])
def test_flux_equals_minus_volume_over_area(lam):
    prof = BoundaryProfile.constant(Axis.XI, lam)
    assert abs(radial_flux(lam) + volume(prof) / boundary_area(prof)) < 1e-8


def test_pulled_back_equation_on_reference_grid():
    # u(t) = v(t lam) must solve the pulled-back equation; finite-difference
    # residual of -u''/lam^2 - (cot - tan)(t lam) u'/lam = 1
    lam = 0.95
    t = np.linspace(0.1, 0.9, 401)
    h = t[1] - t[0]
    u = radial_torsion(lam, t * lam)
    d1 = np.gradient(u, h, edge_order=2)
    d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
    coeff = (1.0 / np.tan(t * lam) - np.tan(t * lam)) / lam
    residual = -(d2 / lam ** 2 + coeff[1:-1] * d1[1:-1]) - 1.0
    assert np.max(np.abs(residual)) < 1e-5


def test_cancellation_safe_near_half_pi():
    lam = np.pi / 2 - 1e-9
    val = radial_torsion(lam, 0.0)
    assert np.isfinite(val) and val > 9.0     # ~ -ln(cos lam)/2 ~ 10.3


def test_domain_validation():
    with pytest.raises(DomainValidationError):
        radial_torsion(0.5, 0.6)
    with pytest.raises(DomainValidationError):
        radial_flux(2.0)
    with pytest.raises(DomainValidationError):
        radial_torsion(0.0, 0.0)
