import json

import numpy as np
import pytest

from serrin import geometry
from serrin.errors import ConfigError, DomainValidationError
from serrin.geometry import (Axis, BoundaryProfile, ModeIndex, boundary_area,
                             laplacian_coefficients, neumann_weight, volume)

SPHERE_VOLUME = 2.0 * np.pi ** 2


# ---------------------------------------------------------------------------
# finite-difference pullback oracle: push the reference coordinates through
# the tube parametrization numerically and contract with the ambient metric
# ---------------------------------------------------------------------------

def _ambient_metric(theta):
    return np.diag([1.0, np.sin(theta) ** 2, np.cos(theta) ** 2])


def _embedding(profile):
    # reference coords (t, active, passive) -> ambient (theta, eta, xi)
    if profile.axis is Axis.XI:
        return lambda t, a, b: np.array([t * profile.value(a), b, a])
    return lambda t, a, b: np.array([t * profile.value(a), a, b])


def _fd_pullback(profile, t, a, b=0.4, h=1e-6):
    emb = _embedding(profile)
    x = np.array([t, a, b])
    jac = np.empty((3, 3))
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (emb(*xp) - emb(*xm)) / (2.0 * h)
    g_amb = _ambient_metric(emb(*x)[0])
    return jac.T @ g_amb @ jac


def _fd_inverse_metric(profile, t, a):
    g = _fd_pullback(profile, t, a)
    return np.linalg.inv(g), np.sqrt(np.linalg.det(g))


def _fd_first_order(profile, t, a, h=1e-4):
    # (c_t, c_a) = d_j(sqrt(g) g^ji) / sqrt(g), j over (t, a): the metric
    # does not depend on the passive angle
    def flux(tt, aa):
        ginv, density = _fd_inverse_metric(profile, tt, aa)
        return density * ginv[:2, :2]

    d_t = (flux(t + h, a) - flux(t - h, a)) / (2.0 * h)
    d_a = (flux(t, a + h) - flux(t, a - h)) / (2.0 * h)
    return (d_t[0] + d_a[1]) / _fd_inverse_metric(profile, t, a)[1]


class TestLaplacianCoefficients:
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_matches_fd_pullback_at_random_points(self, axis, rng):
        # the numerical Jacobian pullback is already in (t, a, b) order
        prof = BoundaryProfile(axis, [0.7, 0.0, 0.08])   # lam + eps cos(2 angle)
        for _ in range(10):
            t = rng.uniform(0.1, 1.0)
            a = rng.uniform(0.0, 2.0 * np.pi)
            gtt, gta, gaa, gbb, ct = (float(f[0, 0]) for f in
                                      laplacian_coefficients(prof, [t], [a]))
            ginv, _ = _fd_inverse_metric(prof, t, a)
            assert abs(gtt - ginv[0, 0]) < 1e-7
            assert abs(gta - ginv[0, 1]) < 1e-7
            assert abs(gaa - ginv[1, 1]) < 1e-7
            assert abs(gbb - ginv[2, 2]) < 1e-7
            c_t, c_a = _fd_first_order(prof, t, a)
            assert abs(ct - c_t) < 1e-4
            assert abs(c_a) < 1e-4

    def test_positive_definiteness_minors(self, rng):
        # the inverse metric is positive definite: the operator is elliptic
        for axis in (Axis.XI, Axis.ETA):
            prof = BoundaryProfile(axis, [0.6, 0.0, 0.1, 0.02])
            t = rng.uniform(1e-3, 1.0, 25)
            a = rng.uniform(0.0, 2 * np.pi, 25)
            gtt, gta, gaa, gbb, _ = laplacian_coefficients(prof, t, a)
            assert np.all(gtt > 0.0)
            assert np.all(gtt * gaa - gta ** 2 > 0.0)
            assert np.all(gbb > 0.0)


class TestQuadrature:
    def test_constant_volume_equals_closed_form_and_riemann_sum(self):
        lam = 0.8
        prof = BoundaryProfile.constant(Axis.XI, lam)
        v = volume(prof)
        assert np.isclose(v, SPHERE_VOLUME * np.sin(lam) ** 2, rtol=1e-12)
        # dense Riemann oracle on the explicit density lam sin(t lam) cos(t lam)
        tq = (np.arange(1000) + 0.5) / 1000
        riemann = np.mean(lam * np.sin(tq * lam) * np.cos(tq * lam)) * (2 * np.pi) ** 2
        assert np.isclose(v, riemann, rtol=1e-6)

    def test_volume_ratio_follows_sin_squared(self):
        for lam in np.linspace(0.05, 1.55, 20):
            prof = BoundaryProfile.constant(Axis.ETA, lam)
            assert abs(volume(prof) / SPHERE_VOLUME - np.sin(lam) ** 2) < 1e-8

    def test_limits_of_volume(self):
        assert volume(BoundaryProfile.constant(Axis.XI, 1.5707)) == pytest.approx(
            SPHERE_VOLUME, rel=1e-3)
        assert volume(BoundaryProfile.constant(Axis.XI, 1e-3)) < 1e-4

    def test_constant_area_and_flux_identity(self):
        lam = 0.75
        prof = BoundaryProfile.constant(Axis.XI, lam)
        a = boundary_area(prof)
        assert np.isclose(a, 4 * np.pi ** 2 * np.sin(lam) * np.cos(lam), rtol=1e-12)
        # -volume/area = -tan(lam)/2, the constant-flux value
        assert np.isclose(-volume(prof) / a, -0.5 * np.tan(lam), rtol=1e-12)

    def test_quarter_pi_area(self):
        assert np.isclose(boundary_area(BoundaryProfile.constant(Axis.ETA, np.pi / 4)),
                          2 * np.pi ** 2, rtol=1e-12)

    def test_perturbed_quantities_against_dense_quadrature(self):
        prof = BoundaryProfile(Axis.XI, [0.7, 0.0, 0.0, 0.06])
        ang = 2 * np.pi * (np.arange(2000) + 0.5) / 2000
        tq = (np.arange(2000) + 0.5) / 2000
        phi = prof.value(ang)
        dens = phi[None, :] * np.sin(tq[:, None] * phi) * np.cos(tq[:, None] * phi)
        vol_oracle = dens.mean() * (2 * np.pi) ** 2
        assert np.isclose(volume(prof, quad_order=60), vol_oracle, rtol=1e-6)
        dphi = prof.slope(ang)
        area_oracle = np.mean(np.sin(phi) * np.sqrt(dphi ** 2 + np.cos(phi) ** 2)) \
            * (2 * np.pi) ** 2
        assert np.isclose(boundary_area(prof, quad_order=60), area_oracle, rtol=1e-6)

    def test_quadrature_convergence_order(self):
        # empirical order of Gauss quadrature on the constant case is far
        # above the nominal requirement; just confirm rapid decay
        lam = 1.1
        prof = BoundaryProfile.constant(Axis.XI, lam)
        exact = SPHERE_VOLUME * np.sin(lam) ** 2
        errs = [abs(volume(prof, quad_order=q) - exact) for q in (2, 4, 8)]
        assert errs[2] < 1e-10 or errs[2] < errs[0] * 1e-3

    def test_quad_order_validation(self):
        with pytest.raises(ConfigError):
            volume(BoundaryProfile.constant(Axis.XI, 0.4), quad_order=1)
        with pytest.raises(ConfigError):
            boundary_area(BoundaryProfile.constant(Axis.XI, 0.4), quad_order=1)

    def test_gauss_rule_is_computed_once_per_order(self):
        prof = BoundaryProfile(Axis.XI, [0.7, 0.0, 0.06])
        geometry._gauss_rule.cache_clear()
        area = boundary_area(prof)          # needs the angle grid only
        assert geometry._gauss_rule.cache_info().currsize == 0
        first = volume(prof)
        assert volume(prof) == first and boundary_area(prof) == area
        assert geometry._gauss_rule.cache_info().misses == 1
        tq, tw = geometry._gauss_rule(40)
        assert not tq.flags.writeable and not tw.flags.writeable


class TestNeumannWeight:
    def test_constant_weight_is_reciprocal_radius(self):
        prof = BoundaryProfile.constant(Axis.XI, 0.62)
        assert np.isclose(neumann_weight(prof, 0.7), 1.0 / 0.62, rtol=1e-14)

    def test_pointwise_flat_slope_reduces_to_reciprocal_value(self):
        # at angle = 0 the cos(2a) perturbation has zero slope
        prof = BoundaryProfile(Axis.XI, [0.6, 0.0, 0.05])
        assert np.isclose(neumann_weight(prof, 0.0), 1.0 / prof.value(0.0), rtol=1e-12)

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_against_inverse_metric_contraction(self, axis, rng):
        # du/dnu = sqrt(g^tt) du/dt on the boundary once tangential
        # derivatives vanish; check sqrt(g^tt) from the fd pullback
        prof = BoundaryProfile(axis, [0.7, 0.0, 0.0, 0.05])
        for _ in range(8):
            a = rng.uniform(0.0, 2 * np.pi)
            g = _fd_pullback(prof, 1.0, a)
            ginv = np.linalg.inv(g)
            assert abs(neumann_weight(prof, a) - np.sqrt(ginv[0, 0])) < 1e-8


class TestProfilesAndTypes:
    def test_mode_index_validation(self):
        assert ModeIndex("xi", 3).eps_delta == (0, 3)
        assert ModeIndex(Axis.ETA, 2).eps_delta == (2, 0)
        with pytest.raises(DomainValidationError):
            ModeIndex(Axis.XI, -1)
        with pytest.raises(DomainValidationError):
            ModeIndex("diagonal", 1)

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), "2", None])
    def test_mode_frequency_that_is_no_integer_is_rejected(self, n):
        # unchecked, inf escaped as OverflowError
        with pytest.raises(DomainValidationError, match="must be an integer >= 0"):
            ModeIndex(Axis.XI, n)
        assert ModeIndex(Axis.XI, 2.0).n == 2 and type(ModeIndex(Axis.XI, 2.0).n) is int

    def test_admissibility(self):
        with pytest.raises(DomainValidationError):
            BoundaryProfile(Axis.XI, [0.05, 0.0, 0.1])   # dips below zero
        with pytest.raises(DomainValidationError):
            BoundaryProfile(Axis.XI, [1.55, 0.0, 0.1])   # exceeds pi/2

    @pytest.mark.parametrize("coeffs", [[float("nan")], [0.8, 0.0, float("nan")]])
    def test_nan_coefficient_is_rejected(self, coeffs):
        with pytest.raises(DomainValidationError, match="admissible band"):
            BoundaryProfile(Axis.XI, coeffs)

    def test_json_roundtrip(self):
        prof = BoundaryProfile(Axis.ETA, [0.8, 0.0, 0.03])
        clone = BoundaryProfile.from_json(prof.to_json())
        assert clone.axis is Axis.ETA
        assert np.allclose(clone.coeffs, prof.coeffs)
        payload = json.loads(prof.to_json())
        assert payload["n_modes"] == 2
