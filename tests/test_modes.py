import numpy as np
import pytest
from scipy.integrate import solve_ivp

from serrin.errors import ConsistencyError, DomainValidationError, NumericalError, PrecisionError
from serrin.geometry import Axis, ModeIndex
from serrin.modes import (LAMBDA_MAX, RECIPROCAL_SWITCH, Endpoint, _dop853_table,
                          _riccati_rhs, chebyshev_grid, frobenius_launch,
                          indicial_roots, riccati_bounds, riccati_solution,
                          riccati_sweep, solve_l)

XI, ETA = Axis.XI, Axis.ETA


class TestIndicialRoots:
    @pytest.mark.parametrize("mode,endpoint,expected", [
        (ModeIndex(XI, 3), Endpoint.ZERO, (0.0, 0.0)),
        (ModeIndex(XI, 3), Endpoint.PI_HALF, (3.0, -3.0)),
        (ModeIndex(ETA, 2), Endpoint.ZERO, (2.0, -2.0)),
        (ModeIndex(ETA, 2), Endpoint.PI_HALF, (0.0, 0.0)),
    ])
    def test_table(self, mode, endpoint, expected):
        assert indicial_roots(mode, endpoint) == expected


class TestFrobeniusLaunch:
    def test_xi_axis_curvature_relation(self):
        # regular xi branch is even with L''(0) = n^2 L(0) / 2, so the
        # second-order Taylor value is 1 + (n^2/4) theta^2
        theta0 = 0.01
        val, der = frobenius_launch(ModeIndex(XI, 2), launch_radius=theta0)
        assert abs(val - (1.0 + theta0 ** 2)) < theta0 ** 4 * 10
        assert abs(der - 2.0 * theta0) < theta0 ** 3 * 30

    def test_eta_branch_vanishes_linearly(self):
        theta0 = 1e-3
        val, _ = frobenius_launch(ModeIndex(ETA, 1), launch_radius=theta0)
        assert abs(val / theta0 - 1.0) < 1e-5    # L ~ theta (1 + O(theta^2))

    def test_derivative_matches_finite_difference_of_series(self):
        theta0, h = 5e-3, 1e-6
        _, der = frobenius_launch(ModeIndex(XI, 1), launch_radius=theta0)
        vp, _ = frobenius_launch(ModeIndex(XI, 1), launch_radius=theta0 + h)
        vm, _ = frobenius_launch(ModeIndex(XI, 1), launch_radius=theta0 - h)
        assert abs(der - (vp - vm) / (2 * h)) < 1e-10

    def test_exact_closed_form_for_xi_two(self):
        # the n=2 xi branch is sec^2(theta) on the nose (unit constant term)
        theta0 = 0.2
        val, der = frobenius_launch(ModeIndex(XI, 2), series_order=40,
                                    launch_radius=theta0)
        assert np.isclose(val, 1.0 / np.cos(theta0) ** 2, rtol=1e-13)
        assert np.isclose(der, 2 * np.tan(theta0) / np.cos(theta0) ** 2, rtol=1e-12)

    def test_tail_certificate(self):
        with pytest.raises(PrecisionError):
            frobenius_launch(ModeIndex(XI, 4), series_order=8, launch_radius=0.8)


class TestSolveL:
    def test_constant_mode(self):
        ms = solve_l(0, 0, 0.9)
        assert np.all(ms.values == 1.0)
        assert ms.l_prime_at_1 == 0.0

    @pytest.mark.parametrize("axis,n", [(XI, 2), (XI, 5), (ETA, 1), (ETA, 4)])
    def test_matches_riccati_route(self, axis, n):
        # independent formulations of the same logarithmic derivative
        lam = 0.85
        eps, delta = ModeIndex(axis, n).eps_delta
        ms = solve_l(eps, delta, lam)
        ric = riccati_solution(ModeIndex(axis, n)).value(lam)
        l_prime_expected = lam * ric if axis is XI else ric
        assert abs(ms.l_prime_at_1 - l_prime_expected) < 1e-8

    def test_exact_profile_for_xi_two(self):
        lam = 1.1
        ms = solve_l(0, 2, lam, t_grid=np.linspace(0.05, 1.0, 96))
        exact = (np.cos(lam) / np.cos(ms.t * lam)) ** 2
        assert np.max(np.abs(ms.values - exact)) < 1e-11
        assert abs(ms.l_prime_at_1 - 2 * lam * np.tan(lam)) < 1e-10

    def test_normalization_positivity_monotonicity(self):
        ms = solve_l(3, 0, 1.3)
        assert ms.values[-1] == 1.0
        assert np.all(ms.values > 0.0)
        assert np.all(np.diff(ms.values) >= 0.0)

    def test_mixed_mode_runs(self):
        ms = solve_l(1, 2, 0.7)
        assert ms.values[-1] == 1.0 and ms.l_prime_at_1 > 0.0
        assert ms.mode is None   # not a pure family

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            solve_l(0, 2, 1.6)
        with pytest.raises(DomainValidationError):
            solve_l(-1, 0, 0.5)


class TestRiccati:
    def test_zero_mode_is_identically_zero(self):
        state = riccati_sweep(ModeIndex(XI, 0), lam_grid=np.linspace(0.1, 1.2, 7))
        assert np.all(state.values == 0.0)

    def test_small_lambda_taylor_value(self):
        # f_n ~ n^2 lam / 2 from the axis curvature relation
        val = riccati_solution(ModeIndex(XI, 2)).value(0.01)
        assert abs(val - 0.02) < 1e-4

    def test_eta_initial_value_is_n(self):
        for n in (1, 3):
            val = riccati_solution(ModeIndex(ETA, n)).value(2e-3)
            assert abs(val - n) < 1e-4

    def test_xi_two_is_exactly_two_tangent(self):
        sol = riccati_solution(ModeIndex(XI, 2))
        lam = chebyshev_grid(60, 0.01, 1.5)
        assert np.max(np.abs(sol.values(lam) - 2 * np.tan(lam))) < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_blowup_rate_near_half_pi(self, n):
        # f_n ~ n/(pi/2 - lam), within 2% at one grid unit from the wall
        lam = np.pi / 2 - 1e-3
        val = riccati_solution(ModeIndex(XI, n)).value(lam)
        assert abs(val * (np.pi / 2 - lam) / n - 1.0) < 0.02

    def test_monotonicity_in_frequency(self):
        grid = chebyshev_grid(50, 0.02, 1.5)
        for axis in (XI, ETA):
            prev = None
            for n in range(1, 9):
                vals = riccati_solution(ModeIndex(axis, n)).values(grid)
                if prev is not None:
                    assert np.all(vals > prev), f"{axis} n={n} not above n={n - 1}"
                prev = vals

    def test_two_sided_bounds_with_margins(self):
        grid = chebyshev_grid(400)
        for axis in (XI, ETA):
            for n in range(1, 9):
                state = riccati_sweep(ModeIndex(axis, n), lam_grid=grid)
                lower, upper = riccati_bounds(state.mode, grid)
                assert np.all(state.values < upper), f"{axis} n={n} upper"
                if lower is None:
                    continue
                margin = state.values - lower
                if axis is XI and n == 2:
                    # bound attained identically: equality up to the sweep's
                    # relative accuracy (values blow up near the wall)
                    scale = np.maximum(1.0, np.abs(lower))
                    assert np.min(margin / scale) > -1e-9
                else:
                    assert np.min(margin) > 0.0, f"{axis} n={n} lower"

    def test_launch_radius_must_precede_the_switch(self):
        with pytest.raises(DomainValidationError):
            riccati_solution(ModeIndex(XI, 2), lam_max=0.5, launch_radius=0.5)

    def test_xi_one_lower_bound_genuinely_fails(self):
        # the n tan(lam) comparison is an n >= 2 statement; document that
        # n = 1 sits strictly below it so the bound is not monitored there
        val = riccati_solution(ModeIndex(XI, 1)).value(0.2)
        assert val < np.tan(0.2)

    def test_comparison_function_bound(self):
        # on (0, arcsin(1/n)] the slope is below that of the tangent ratio
        for n in (2, 4, 6):
            sol = riccati_solution(ModeIndex(XI, n))
            for lam in np.linspace(0.05, np.arcsin(1.0 / n), 9):
                assert sol.value(lam) < (1.0 / np.tan(lam)) / np.cos(lam) ** 2

    def test_self_convergence_under_tolerance_halving(self):
        grid = np.linspace(0.1, 1.4, 11)
        for axis, n in ((XI, 3), (ETA, 2)):
            a = riccati_solution(ModeIndex(axis, n), rtol=1e-10).values(grid)
            b = riccati_solution(ModeIndex(axis, n), rtol=5e-11).values(grid)
            assert np.max(np.abs(a - b) / np.abs(b)) < 10 * 5e-11

    def test_bound_monitor_aborts_on_corrupted_launch(self):
        riccati_solution.cache_clear()
        try:
            grid = np.linspace(0.01, 1.0, 50)
            with pytest.raises(ConsistencyError, match="lower comparison bound") as info:
                riccati_sweep(ModeIndex(XI, 2), lam_grid=grid, _initial_shift=-0.05)
        finally:
            riccati_solution.cache_clear()
        details = info.value.details
        assert details["mode"] == ["xi", 2] and details["bound_tol"] == 1e-7
        assert details["lam"] in grid
        assert details["bound"] - details["value"] > 1e-7 * max(1.0, details["bound"])


def _solve_ivp_riccati(mode, rtol=1e-10):
    """The Riccati curve of ``riccati_solution`` integrated by scipy's solve_ivp.

    Same launch value, right-hand sides, segments and tolerances; returns
    an evaluator on [lam0, LAMBDA_MAX] and the number of accepted steps.
    """
    lam0 = 1e-3
    val, der = frobenius_launch(mode, launch_radius=lam0)
    y0 = der / val * (lam0 if mode.axis is ETA else 1.0)
    rhs, rhs_recip = _riccati_rhs(mode)
    ivp_rtol = max(rtol / 25.0, 1e-13)
    direct = solve_ivp(lambda t, y: [rhs(t, y[0])], (lam0, RECIPROCAL_SWITCH), [y0],
                       method="DOP853", rtol=ivp_rtol, atol=1e-14, dense_output=True)
    recip = solve_ivp(lambda t, y: [rhs_recip(t, y[0])], (RECIPROCAL_SWITCH, LAMBDA_MAX),
                      [1.0 / direct.sol(RECIPROCAL_SWITCH)[0]],
                      method="DOP853", rtol=ivp_rtol, atol=1e-16, dense_output=True)

    def values(lam):
        return np.where(lam <= RECIPROCAL_SWITCH,
                        direct.sol(np.minimum(lam, RECIPROCAL_SWITCH))[0],
                        1.0 / recip.sol(np.maximum(lam, RECIPROCAL_SWITCH))[0])
    return values, len(direct.t) + len(recip.t) - 2


class TestDop853Stepper:
    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 24])
    def test_matches_scipy_dop853(self, axis, n):
        mode = ModeIndex(axis, n)
        reference, ref_steps = _solve_ivp_riccati(mode)
        sol = riccati_solution(mode)
        grid = np.linspace(1e-3, LAMBDA_MAX, 2000)
        ref = reference(grid)
        err = np.abs(sol.values(grid) - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) < 2e-10
        assert abs(len(sol._rows) - ref_steps) <= 0.02 * ref_steps

    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_array_evaluation_equals_pointwise_bitwise(self, axis):
        sol = riccati_solution(ModeIndex(axis, 6))
        edges = [2e-4, 5e-4, sol.lam0, np.nextafter(sol.lam0, 1.0), RECIPROCAL_SWITCH,
                 np.nextafter(RECIPROCAL_SWITCH, 0.0), np.nextafter(RECIPROCAL_SWITCH, 2.0),
                 sol.lam_max]
        points = np.concatenate([edges, np.linspace(1e-4, sol.lam_max, 302),
                                 sol._rows[:40, 0]])
        vals = sol.values(points)
        assert all(vals[i] == sol.value(x) for i, x in enumerate(points))
        assert np.array_equal(sol.values(points.reshape(-1, 7)), vals.reshape(-1, 7))
        assert sol.values(np.float64(0.7)).shape == ()

    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_error_against_tight_reference(self, axis):
        grid = np.linspace(1e-3, LAMBDA_MAX, 1500)
        for n in range(2, 25):
            mode = ModeIndex(axis, n)
            ref = riccati_solution(mode, rtol=2.5e-12).values(grid)
            err = np.abs(riccati_solution(mode).values(grid) - ref)
            assert np.max(err / np.maximum(1.0, np.abs(ref))) < 5e-10, f"{mode}"

    def test_non_finite_launch_carries_details(self):
        with pytest.raises(NumericalError, match="non-finite") as info:
            riccati_solution(ModeIndex(XI, 2), _initial_shift=float("nan"))
        assert info.value.details == {"mode": ["xi", 2], "segment": "direct",
                                      "lam": 1e-3, "step": None, "rtol": 4e-12}

    def test_blow_up_stops_below_the_minimum_step(self):
        # a launch value far below the curve sends k_n to -infinity just
        # past lam0; the steps shrink to 10 ulp and the run stops there
        with pytest.raises(NumericalError, match="minimum") as info:
            riccati_solution(ModeIndex(ETA, 3), rtol=1e-8, _initial_shift=-1e3)
        details = info.value.details
        assert details["mode"] == ["eta", 3] and details["segment"] == "direct"
        assert 1e-3 < details["lam"] < 3e-3 and details["rtol"] == 4e-10
        assert 0.0 < details["step"] < 1e-15

    def test_exact_blow_up_is_located_in_the_details(self):
        # y' = y^2 from y(1.2) = 10 is 1/(1.3 - lam)
        with pytest.raises(NumericalError) as info:
            _dop853_table(lambda t, y: y * y, RECIPROCAL_SWITCH, 10.0, LAMBDA_MAX,
                          1e-10, 1e-16, {"segment": "reciprocal"})
        assert info.value.details["segment"] == "reciprocal"
        assert abs(info.value.details["lam"] - (RECIPROCAL_SWITCH + 0.1)) < 1e-6
