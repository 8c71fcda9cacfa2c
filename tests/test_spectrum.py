import numpy as np
import pytest

from serrin.errors import DomainValidationError
from serrin.geometry import Axis, ModeIndex
from serrin.modes import RiccatiSolution, chebyshev_grid, riccati_solution
from serrin.spectrum import (asymptotics_report, eigen_curve, find_lambda_n,
                             sigma, sigma_ode, sigma_prime_closed_form,
                             sigma_values)

XI, ETA = Axis.XI, Axis.ETA

# regression baselines, frozen from a bisection on the dense mode-ODE route
LAMBDA_BASELINES = {
    XI: {2: 0.78539816345143, 3: 0.53038150094006, 4: 0.39963906733697,
         5: 0.32040647046943, 6: 0.26732203092967, 7: 0.22929737026734,
         8: 0.20072864253298},
    ETA: {2: 1.22234036793690, 3: 1.35800617439277, 4: 1.41601480887075,
          5: 1.44871961726678, 6: 1.46985101230134, 7: 1.48467598596559,
          8: 1.49567004672346},
}


class TestSigma:
    def test_zero_mode_closed_form(self):
        for lam in (0.3, 0.9, 1.4):
            for axis in (XI, ETA):
                assert np.isclose(sigma(ModeIndex(axis, 0), lam),
                                  -0.5 / np.cos(lam) ** 2, rtol=1e-14)

    def test_xi_two_closed_form(self):
        # f_2 = 2 tan gives sigma_2 = (tan^2 - 1)/2
        for lam in (0.3, 0.8, 1.3):
            assert abs(sigma(ModeIndex(XI, 2), lam) - 0.5 * (np.tan(lam) ** 2 - 1.0)) < 1e-9

    def test_sign_at_proved_edges(self):
        assert sigma(ModeIndex(XI, 2), np.arcsin(0.5)) < 0.0
        assert sigma(ModeIndex(ETA, 2), np.arccos(0.5)) > 0.0

    def test_riccati_and_ode_routes_agree(self):
        for axis, n, lam in ((XI, 3, 0.6), (XI, 7, 1.1), (ETA, 2, 0.9), (ETA, 5, 1.3)):
            a = sigma(ModeIndex(axis, n), lam)
            b = sigma_ode(ModeIndex(axis, n), lam)
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_monotone_in_frequency_both_axes(self):
        grid = chebyshev_grid(60, 0.05, 1.5)
        for axis in (XI, ETA):
            prev = None
            for n in range(0, 9):
                vals = sigma_values(ModeIndex(axis, n), grid)
                if prev is not None:
                    assert np.all(vals > prev)
                prev = vals

    def test_proved_sign_windows(self):
        cap = np.pi / 2 - 1e-4    # sweep limit; arcsin(1/1) is the open end
        for n in range(1, 9):
            lams = np.linspace(0.02, min(np.arcsin(1.0 / n), cap), 25)
            assert np.all(sigma_values(ModeIndex(XI, n), lams) < 0.0)
        for n in range(2, 9):
            lams = np.linspace(0.02, np.arccos(1.0 / n), 25)
            assert np.all(sigma_values(ModeIndex(ETA, n), lams) > 0.0)

    def test_domain_validation(self):
        with pytest.raises(DomainValidationError):
            sigma(ModeIndex(XI, 2), 1.6)

    @pytest.mark.parametrize("mode", [5, ("zeta", 2), ("xi", 2.5), ("xi", None)])
    def test_uninterpretable_mode_is_rejected(self, mode):
        with pytest.raises(DomainValidationError):
            sigma(mode, 0.5)

    def test_axis_pair_is_coerced(self):
        assert sigma(("XI", 2), 0.5) == sigma(ModeIndex(Axis.XI, 2), 0.5)


def _bisect_sigma_via_ode(mode, lo, hi, iters=48):
    """Independent root oracle: bisection on the dense mode-ODE route."""
    flo = sigma_ode(mode, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = sigma_ode(mode, mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestLambdaRoots:
    def test_xi_two_is_quarter_pi(self, lambda_roots):
        assert abs(lambda_roots[(XI, 2)].lambda_n - np.pi / 4) < 1e-9

    def test_against_bisection_oracle(self, lambda_roots):
        oracle = _bisect_sigma_via_ode(ModeIndex(XI, 2), 0.6, 0.82)
        assert abs(lambda_roots[(XI, 2)].lambda_n - oracle) < 1e-9

    def test_regression_baselines(self, lambda_roots):
        for axis, table in LAMBDA_BASELINES.items():
            for n, frozen in table.items():
                assert abs(lambda_roots[(axis, n)].lambda_n - frozen) < 1e-8

    def test_intervals_and_ordering(self, lambda_roots):
        xi_seq = [lambda_roots[(XI, n)].lambda_n for n in range(2, 9)]
        eta_seq = [lambda_roots[(ETA, n)].lambda_n for n in range(2, 9)]
        assert all(a > b for a, b in zip(xi_seq, xi_seq[1:]))      # decreasing
        assert all(a < b for a, b in zip(eta_seq, eta_seq[1:]))    # increasing
        for n in range(2, 9):
            assert lambda_roots[(XI, n)].lambda_n <= np.arcsin(n ** -0.5) + 1e-9
            assert np.arccos(1.0 / n) < lambda_roots[(ETA, n)].lambda_n < np.pi / 2

    def test_residuals_below_tolerance(self, lambda_roots):
        for point in lambda_roots.values():
            assert point.sigma_residual < 1e-10
            assert point.sign_changes == 1

    def test_root_stability_under_tolerance_halving(self):
        a = find_lambda_n(ModeIndex(ETA, 3), tol=1e-12, sweep_rtol=1e-10)
        b = find_lambda_n(ModeIndex(ETA, 3), tol=5e-13, sweep_rtol=5e-11)
        assert abs(a.lambda_n - b.lambda_n) < 1e-11

    def test_log_derivative_identity_at_roots(self, lambda_roots):
        # sigma_n(lambda_n) = 0 forces L'/L = 1/(sin cos) there
        from serrin.modes import riccati_solution
        for (axis, n), point in lambda_roots.items():
            lam = point.lambda_n
            val = riccati_solution(ModeIndex(axis, n)).value(lam)
            log_der = val if axis is XI else val / lam
            assert abs(log_der - 1.0 / (np.sin(lam) * np.cos(lam))) < 1e-7

    def test_rejects_low_modes(self):
        with pytest.raises(DomainValidationError):
            find_lambda_n(ModeIndex(XI, 1))


class TestSigmaPrime:
    def test_signs(self, lambda_roots):
        for n in range(2, 9):
            assert lambda_roots[(XI, n)].sigma_prime > 0.0
            assert lambda_roots[(ETA, n)].sigma_prime < 0.0

    def test_xi_two_slope_is_two(self, lambda_roots):
        # d sigma_2/d lambda = tan sec^2 = 2 at the quarter-pi root
        assert abs(lambda_roots[(XI, 2)].sigma_prime - 2.0) < 1e-8

    @pytest.mark.parametrize("axis,n", [(XI, 2), (XI, 5), (ETA, 2), (ETA, 4)])
    def test_closed_form_matches_richardson_fd(self, axis, n, lambda_roots):
        point = lambda_roots[(axis, n)]
        closed = sigma_prime_closed_form(point)
        h = 1e-4
        d1 = (sigma(point.mode, point.lambda_n + h)
              - sigma(point.mode, point.lambda_n - h)) / (2 * h)
        d2 = (sigma(point.mode, point.lambda_n + h / 2)
              - sigma(point.mode, point.lambda_n - h / 2)) / h
        fd = (4 * d2 - d1) / 3.0
        assert abs(closed - fd) < 1e-5 * abs(closed)

    def test_requires_a_root(self):
        from serrin.spectrum import BifurcationPoint
        fake = BifurcationPoint(ModeIndex(XI, 2), 0.5, 0.0, (0.4, 0.6), 1.0, 1)
        with pytest.raises(DomainValidationError):
            sigma_prime_closed_form(fake)


class TestAsymptotics:
    def test_xi_report(self):
        rep = asymptotics_report(XI)
        assert all(rep.checks.values())
        for n, ratio in rep.near_wall_ratios.items():
            assert 0.95 <= ratio <= 1.05
        assert rep.lambda_roots[8] < np.arcsin(8 ** -0.5)
        # observed small-radius limit is -1/2 for every frequency
        assert all(abs(v + 0.5) < 1e-3 for v in rep.small_lambda_limits.values())

    def test_eta_report(self):
        rep = asymptotics_report(ETA)
        assert all(rep.checks.values())
        for v in rep.near_wall_ratios.values():
            assert v < -1e3
        # observed small-radius limits approach (n-1)/2
        for n, v in rep.small_lambda_limits.items():
            assert abs(v - 0.5 * (n - 1)) < 2e-3

    def test_xi_upper_bound_example(self):
        lam = 0.8
        cap = 1.5 * np.tan(lam) / np.cos(lam)
        for n in range(1, 9):
            assert sigma(ModeIndex(XI, n), lam) / n <= cap

    def test_near_wall_ratio_example(self):
        lam = 1.5
        val = sigma(ModeIndex(XI, 4), lam) * 2 * np.cos(lam) ** 2 / 3.0
        assert 0.95 <= val <= 1.05


def test_eigen_curve_payload():
    curve = eigen_curve(ModeIndex(ETA, 2), np.linspace(0.3, 1.3, 11))
    assert curve.sigma.shape == (11,) and curve.riccati.shape == (11,)
    # crossing happens exactly once, inside the proved interval
    signs = np.sign(curve.sigma)
    assert np.count_nonzero(np.diff(signs) != 0) == 1


def test_eigen_curve_evaluates_the_riccati_curve_once(monkeypatch):
    calls = []
    original = RiccatiSolution.values

    def counted(self, lam):
        calls.append(self.mode)
        return original(self, lam)

    mode, grid = ModeIndex(XI, 5), chebyshev_grid(50)
    monkeypatch.setattr(RiccatiSolution, "values", counted)
    curve = eigen_curve(mode, grid)
    assert calls == [mode]
    assert np.array_equal(curve.riccati, riccati_solution(mode).values(grid))
    assert np.array_equal(curve.sigma, sigma_values(mode, grid))
