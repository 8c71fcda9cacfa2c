import math

import numpy as np
import pytest

from serrin import branch, discrete, linearize, modes
from serrin.errors import AnalysisError, ConfigError, DomainValidationError, NumericalError
from serrin.fourier import CosineSeries
from serrin.geometry import Axis, BoundaryProfile, ModeIndex
from serrin.branch import branch_report, check_cr_hypotheses, trace_branch
from serrin.linearize import apply_L, constant_operator
from serrin.torsion import serrin_defect, solve_torsion, torsion_field

from oracles import discrete_sigma, richardson_slope

XI, ETA = Axis.XI, Axis.ETA
# the certificate grids of the branch payloads and of the tests
SLOPE_CASES = [(XI, 2, (64, 64)), (ETA, 2, (64, 64)), (ETA, 3, (64, 66)), (XI, 2, (48, 32))]


def _fd_jacobian(mode, x, s, truncation, grid, h):
    """Central-difference Jacobian of the projected flux equations: the oracle."""
    jac = np.empty((x.size, x.size))
    for col in range(x.size):
        step = np.zeros(x.size)
        step[col] = h
        res_p = branch._residual(mode, x + step, s, truncation, grid)[0]
        res_m = branch._residual(mode, x - step, s, truncation, grid)[0]
        jac[:, col] = (res_p - res_m) / (2.0 * h)
    return jac


def _full_grid_points(mode, cert, s_max, n_steps, truncation):
    """trace_branch's points solved on the full grid with every mode free: the oracle.

    Returns (profile, Newton iterations, flux samples) per continued point.
    """
    grid = discrete.TubeGrid(mode.axis, *cert.details["resolution"])
    x, x_prev, out = np.concatenate([[cert.lambda_j], np.zeros(truncation - 1)]), None, []
    for k in range(1, n_steps + 1):
        pred = x if x_prev is None else 2.0 * x - x_prev
        x_new, fld, iters, _ = branch._newton_solve(
            mode, pred, k * s_max / n_steps, truncation, grid, 1e-10, 12,
            cert.details["sigmas"], cert.transversality_slope)
        out.append((fld.profile, iters, fld.neumann))
        x_prev, x = x, x_new
    return out


def _record_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to log its first argument; returns the log."""
    calls = []
    original = getattr(owner, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


def _record_factorizations(monkeypatch):
    """Log every operator whose assembled ``TubeOperator.lu`` is read."""
    calls = []
    fget = discrete.TubeOperator.lu.fget

    def lu(op):
        calls.append(op)
        return fget(op)

    monkeypatch.setattr(discrete.TubeOperator, "lu", property(lu))
    return calls


@pytest.fixture(scope="module")
def cert_xi2():
    return check_cr_hypotheses(ModeIndex(XI, 2), truncation=12, resolution=(48, 32))


@pytest.fixture(scope="module")
def run_xi2(cert_xi2):
    return trace_branch(ModeIndex(XI, 2), s_max=0.02, n_steps=4,
                        resolution=(48, 32), truncation=12, certificate=cert_xi2)


class TestCertificate:
    def test_xi_two_passes_with_positive_crossing(self, cert_xi2):
        assert cert_xi2.passed
        assert cert_xi2.spectral_gap > 1e-2
        assert cert_xi2.transversality_slope > 0.0
        assert cert_xi2.kernel_dimension == 1
        assert abs(cert_xi2.lambda_j - np.pi / 4) < 1e-9

    def test_eta_two_passes_with_negative_crossing(self):
        cert = check_cr_hypotheses(ModeIndex(ETA, 2), truncation=8,
                                   resolution=(48, 32))
        assert cert.passed and cert.transversality_slope < 0.0
        assert cert.spectral_gap > 1e-2

    def test_builds_three_straight_tubes_and_one_extension(self, monkeypatch):
        # 0.95 lambda_j, 1.05 lambda_j and lambda_j; every sigma_m comes from
        # one harmonic extension, the slope from two solves on lambda_j's factors
        built = _record_calls(monkeypatch, discrete.StraightTubeOperator, "__init__")
        extensions = _record_calls(monkeypatch, linearize, "harmonic_extend")
        cert = check_cr_hypotheses(ModeIndex(XI, 2), truncation=8, resolution=(48, 32))
        assert cert.passed and len(built) == 3 and len(extensions) == 1

    @pytest.mark.parametrize("axis, j, resolution", SLOPE_CASES)
    def test_exact_slope_matches_the_difference_quotient(self, lambda_roots, axis, j, resolution):
        grid = discrete.TubeGrid(axis, *resolution)
        lam = lambda_roots[(axis, j)].lambda_n
        slope = branch._transversality_slope(discrete.StraightTubeOperator(grid, lam), j)
        oracle = richardson_slope(grid, j, lam)
        assert abs(slope - oracle) <= 1e-8 * abs(oracle)

    @pytest.mark.parametrize("axis, j, resolution", SLOPE_CASES)
    def test_exact_slope_is_steady_under_one_ulp_of_lambda(self, lambda_roots, axis, j,
                                                          resolution):
        # a central difference with step 1e-4 moves by up to 6e-9 relative here
        grid = discrete.TubeGrid(axis, *resolution)
        lam = lambda_roots[(axis, j)].lambda_n
        here, above = (branch._transversality_slope(discrete.StraightTubeOperator(grid, x), j)
                       for x in (lam, math.nextafter(lam, 2.0)))
        assert abs(above - here) <= 1e-10 * abs(here)

    @pytest.mark.parametrize("axis, j, resolution", SLOPE_CASES)
    def test_sigmas_of_one_extension_match_one_extension_per_mode(self, lambda_roots, axis, j,
                                                                 resolution):
        grid = discrete.TubeGrid(axis, *resolution)
        lam = lambda_roots[(axis, j)].lambda_n
        modes = range(resolution[1] // 2)
        sigmas = branch._discrete_sigmas(discrete.StraightTubeOperator(grid, lam), modes)
        per_mode = [discrete_sigma(grid, m, lam) for m in modes]
        assert np.max(np.abs(sigmas - per_mode)) <= 1e-10

    def test_builds_no_two_dimensional_operator(self, monkeypatch):
        calls = _record_factorizations(monkeypatch)
        cert = check_cr_hypotheses(ModeIndex(XI, 2), truncation=8, resolution=(48, 32))
        assert cert.passed and calls == []

    def test_truncation_below_the_kernel_mode_is_rejected_before_any_solve(self, monkeypatch):
        calls = _record_calls(monkeypatch, branch, "find_lambda_n")
        with pytest.raises(DomainValidationError, match="truncation 1"):
            check_cr_hypotheses(ModeIndex(XI, 2), truncation=1)
        assert calls == []

    def test_truncation_at_the_nyquist_mode_is_rejected_before_any_solve(self, monkeypatch):
        # mode M/2 is the Nyquist mode: its discrete sigma is exactly 0
        calls = _record_calls(monkeypatch, branch, "find_lambda_n")
        with pytest.raises(DomainValidationError, match="Nyquist mode 16"):
            check_cr_hypotheses(ModeIndex(XI, 2), truncation=16, resolution=(48, 32))
        assert calls == []

    def test_failure_carries_its_context(self, monkeypatch):
        monkeypatch.setattr(branch, "GAP_FLOOR", 10.0)
        with pytest.raises(AnalysisError, match="hypothesis \\(iii\\)") as info:
            check_cr_hypotheses(ModeIndex(XI, 2), truncation=8, resolution=(48, 32))
        details = info.value.details
        assert len(details["sigmas"]) == 8 + 1
        assert details["resolution"] == (48, 32) and details["truncation"] == 8
        assert abs(details["lambda_j"] - np.pi / 4) < 1e-9
        assert details["trivial_defect"] < 1e-10

    def test_kernel_check_fails_off_the_root(self, lambda_roots):
        # away from lambda_j no discrete eigenvalue is near zero: the
        # battery distinguishes the root from nearby radii
        lam_off = lambda_roots[(XI, 2)].lambda_n + 0.1
        op = constant_operator(XI, lam_off, (48, 32))
        sig2 = apply_L(lam_off, CosineSeries.basis(2), axis=XI,
                       operator=op).series.coefficient(2)
        assert abs(sig2) > 1e-2


class TestBranch:
    def test_starts_at_the_bifurcation_point(self, run_xi2):
        first = run_xi2.points[0]
        assert first.s == 0.0
        assert abs(first.lam - np.pi / 4) < 1e-9
        assert first.defect < 1e-10

    def test_settings_record_the_newton_tolerances(self, run_xi2):
        # the branch JSON writes the settings, so their values and types hold
        assert run_xi2.settings == {"s_max": 0.02, "n_steps": 4, "resolution": (48, 32),
                                    "truncation": 12, "newton_tol": 1e-10, "max_newton": 12}
        assert type(run_xi2.settings["newton_tol"]) is float
        assert type(run_xi2.settings["max_newton"]) is int

    def test_every_point_is_discretely_serrin(self, run_xi2):
        for p in run_xi2.points[1:]:
            assert p.defect < 1e-6
            assert p.newton_iters <= 12

    def test_kernel_amplitude_is_pinned(self, run_xi2):
        for p in run_xi2.points[1:]:
            assert abs(p.profile.coeffs[2] - p.s) < 1e-14
            assert p.kernel_orthogonality < 1e-10

    def test_profiles_are_nonconstant(self, run_xi2):
        last = run_xi2.points[-1]
        assert np.max(np.abs(last.profile.coeffs[1:])) >= last.s * 0.99

    def test_divergence_identity_survives_continuation(self, run_xi2):
        for p in run_xi2.points:
            assert p.divergence_gap < 1e-6

    def test_correction_is_real(self, run_xi2):
        # freezing lambda at lambda_j with no correction leaves a visibly
        # non-Serrin profile, while the solved branch point is Serrin
        last = run_xi2.points[-1]
        frozen = BoundaryProfile.perturbed(XI, np.pi / 4, 2, last.s)
        defect_frozen = serrin_defect(solve_torsion(frozen, (48, 32)))
        assert defect_frozen > 1e-4
        assert last.defect < 1e-6 < defect_frozen

    def test_negative_amplitude_also_solves(self, cert_xi2):
        run = trace_branch(ModeIndex(XI, 2), s_max=-0.01, n_steps=2,
                           resolution=(48, 32), truncation=12,
                           certificate=cert_xi2)
        assert all(p.defect < 1e-6 for p in run.points)

    def test_one_point_costs_at_most_four_factorizations(self, cert_xi2, monkeypatch):
        # a point builds matrix-free operators only: nothing is assembled and
        # nothing factorized
        assembled = _record_calls(monkeypatch, discrete.TubeOperator, "__init__")
        factorized = _record_factorizations(monkeypatch)
        built = _record_calls(monkeypatch, discrete.MatrixFreeTubeOperator, "__init__")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert run.points[-1].defect < 1e-6
        assert assembled == [] and factorized == []
        assert 0 < len(built) <= 4

    def test_start_is_the_sector_straight_tube_field(self, cert_xi2, monkeypatch):
        # the s = 0 point is the straight tube lambda_j on the run's own
        # sector grid, repeated over the circle; no matrix-free operator is
        # built for it
        built = []
        init = discrete.MatrixFreeTubeOperator.__init__

        def record(op, grid, profile):
            built.append(profile)
            init(op, grid, profile)

        monkeypatch.setattr(discrete.MatrixFreeTubeOperator, "__init__", record)
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert built and not any(p.is_constant for p in built)
        sector = discrete.TubeGrid(XI, 48, 32, symmetry=2)
        fld = torsion_field(discrete.StraightTubeOperator(sector, cert_xi2.lambda_j))
        assert np.array_equal(run.points[0].neumann, np.tile(fld.neumann, 2))

    def test_one_grid_serves_the_whole_run(self, monkeypatch):
        # the certificate's full grid and the run's sector grid: one stencil
        # table and one trace table each, one fd_weights call apiece, and no
        # continued point builds stencils
        weights = _record_calls(monkeypatch, discrete, "fd_weights")
        stencils = _record_calls(monkeypatch, discrete.RadialStencils, "__init__")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=2,
                           resolution=(40, 32), truncation=8)
        assert len(run.points) == 3 and run.points[-1].defect < 1e-6
        assert len(weights) == 4 and len(stencils) == 2
        # the sector grid comes first: building it checks M/j
        sector, full = stencils
        assert full.m_angles == 32 and sector.m_angles == 32 // 2

    def test_a_certificate_on_another_grid_costs_one_grid(self, cert_xi2, monkeypatch):
        stencils = _record_calls(monkeypatch, discrete.RadialStencils, "__init__")
        trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=2,
                     resolution=(40, 32), truncation=8, certificate=cert_xi2)
        assert len(stencils) == 1

    def test_continuation_runs_no_riccati_integration(self, cert_xi2):
        # the chord Jacobian holds the certificate's discrete eigenvalues;
        # no step needs the ODE eigenvalues of the modes other than j
        modes.riccati_solution.cache_clear()
        trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                     resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert modes.riccati_solution.cache_info().misses == 0

    @pytest.mark.parametrize("j, m_angles", [(3, 64), (2, 30)])
    def test_grid_without_an_even_sector_is_rejected_before_the_certificate(
            self, monkeypatch, j, m_angles):
        calls = _record_calls(monkeypatch, branch, "find_lambda_n")
        with pytest.raises(ConfigError, match=f"M = {m_angles} "):
            trace_branch(ModeIndex(ETA, j), s_max=0.01, n_steps=1,
                         resolution=(48, m_angles), truncation=12)
        assert calls == []

    @pytest.mark.parametrize("mode, resolution", [(ModeIndex(ETA, 2), (48, 32)),
                                                  (ModeIndex(XI, 3), (48, 30))])
    def test_a_certificate_of_another_mode_is_rejected_before_any_solve(
            self, cert_xi2, monkeypatch, mode, resolution):
        # unchecked, eta j=2 started at the xi root pi/4 and left the band,
        # and xi j=3 failed only after two Newton solves
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        for name in ("check_cr_hypotheses", "torsion_field", "_discrete_sigmas",
                     "_newton_solve"):
            monkeypatch.setattr(branch, name, no_solve)
        with pytest.raises(DomainValidationError,
                           match=f"mode {mode.axis.value} {mode.n} vs the certificate's xi 2"):
            trace_branch(mode, s_max=0.01, n_steps=2, resolution=resolution,
                         truncation=8, certificate=cert_xi2)

    @pytest.mark.parametrize("kwargs, match", [
        (dict(s_max=0.01, n_steps=2.5), "n_steps must be an integer, got 2.5"),
        (dict(s_max=0.01, n_steps=0), "n_steps must be >= 1, got 0"),
        (dict(s_max=0.01, n_steps=-1), "n_steps must be >= 1, got -1"),
        (dict(s_max=math.nan, n_steps=2), "s_max must be a finite nonzero number, got nan"),
        (dict(s_max=math.inf, n_steps=2), "s_max must be a finite nonzero number, got inf"),
        (dict(s_max=0.0, n_steps=2), "s_max must be a finite nonzero number, got 0.0"),
        (dict(s_max="0.01", n_steps=2), "s_max must be a finite nonzero number, got '0.01'"),
        (dict(s_max=0.01, n_steps=2, truncation=8.5), "truncation must be an integer, got 8.5"),
    ])
    def test_unusable_arguments_are_rejected_before_any_solve(self, monkeypatch, kwargs, match):
        # unchecked, n_steps=0 returned a one-point "completed" run, NaN and
        # inf ran the certificate first, and 2.5 and 8.5 escaped as TypeError
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        for name in ("find_lambda_n", "check_cr_hypotheses", "torsion_field",
                     "_discrete_sigmas", "_newton_solve"):
            monkeypatch.setattr(branch, name, no_solve)
        with pytest.raises(DomainValidationError, match=match):
            trace_branch(ModeIndex(XI, 2), resolution=(48, 32), **dict(dict(truncation=8), **kwargs))

    def test_integral_float_counts_are_accepted(self, cert_xi2):
        # as ModeIndex accepts 2.0; a float count once escaped as TypeError
        run = trace_branch(ModeIndex(XI, 2), 0.01, 2.0, resolution=(48, 32),
                           truncation=12.0, certificate=cert_xi2)
        assert len(run.points) == 3 and run.termination == "completed"
        assert type(run.settings["n_steps"]) is int and type(run.settings["truncation"]) is int
        cert = check_cr_hypotheses(ModeIndex(XI, 2), 8.0, (48, 32))
        assert cert.passed and cert.details["truncation"] == 8
        assert len(cert.details["sigmas"]) == 9

    def test_points_carry_their_krylov_iterations_and_sine_residual(self, run_xi2):
        rows = branch_report(run_xi2).rows
        assert run_xi2.points[0].krylov_iterations == rows[0]["krylov_iterations"] == 0
        for p, row in zip(run_xi2.points[1:], rows[1:]):
            assert 0 < p.krylov_iterations == row["krylov_iterations"] < discrete.KRYLOV_MAX_ITER
            assert p.sine_residual == row["sine_residual"] < 1e-12
            assert p.neumann.shape == (32,)

    def test_refinement_stability_of_lambda(self, cert_xi2):
        kwargs = dict(s_max=0.01, n_steps=1, truncation=8, certificate=cert_xi2)
        coarse = trace_branch(ModeIndex(XI, 2), resolution=(40, 32), **kwargs)
        fine = trace_branch(ModeIndex(XI, 2), resolution=(80, 32), **kwargs)
        assert abs(coarse.points[-1].lam - fine.points[-1].lam) < 1e-7


class TestTangentJacobian:
    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_matches_central_differences(self, axis, lambda_roots):
        mode, truncation, grid = ModeIndex(axis, 2), 8, discrete.TubeGrid(axis, 48, 32)
        x = np.concatenate([[lambda_roots[(axis, 2)].lambda_n + 0.01],
                            0.002 * np.arange(1, truncation) / truncation])
        s = 0.01
        _, fld, op = branch._residual(mode, x, s, truncation, grid)
        free_modes = [m for m in range(1, truncation + 1) if m != 2]
        jac = branch._jacobian(op, fld, truncation, free_modes)
        oracle = _fd_jacobian(mode, x, s, truncation, grid, 1e-4)
        assert np.max(np.abs(jac - oracle)) < 1e-5 * np.max(np.abs(jac))

    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_matches_central_differences_on_the_sector(self, axis, lambda_roots):
        # j = 3 on the 2 pi/3 sector: the unknowns are lambda, b_6 and b_9
        mode, truncation = ModeIndex(axis, 3), 10
        grid = discrete.TubeGrid(axis, 48, 36, symmetry=3)
        x = np.array([lambda_roots[(axis, 3)].lambda_n + 0.01, 0.001, -0.0005])
        _, fld, op = branch._residual(mode, x, 0.01, truncation, grid)
        jac = branch._jacobian(op, fld, truncation, [6, 9])
        oracle = _fd_jacobian(mode, x, 0.01, truncation, grid, 1e-4)
        assert jac.shape == (3, 3)
        assert np.max(np.abs(jac - oracle)) < 1e-5 * np.max(np.abs(jac))


class TestChordNewton:
    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_matches_the_tangent_route(self, axis, monkeypatch):
        # the criterion-8 path: chord steps converge to the points the
        # tangent Jacobian from the first step converges to
        mode = ModeIndex(axis, 2)
        cert = check_cr_hypotheses(mode, truncation=16, resolution=(64, 64))
        kwargs = dict(s_max=0.02, n_steps=10, resolution=(64, 64), truncation=16,
                      certificate=cert)
        chord = trace_branch(mode, **kwargs)
        monkeypatch.setattr(branch, "CHORD_CONTRACTION", 0.0)
        tangent = trace_branch(mode, **kwargs)
        assert chord.termination == tangent.termination == "completed"
        assert [p.tangent_jacobians for p in chord.points[1:]] == [0] * 10
        assert [p.tangent_jacobians for p in tangent.points[1:]] == [1] * 10
        for a, b in zip(chord.points, tangent.points):
            assert a.s == b.s
            assert abs(a.lam - b.lam) < 1e-9
            assert np.max(np.abs(a.profile.coeffs - b.profile.coeffs)) < 1e-9

    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("j, resolution", [(2, (64, 64)), (3, (64, 66))])
    def test_sector_solve_matches_the_full_grid(self, axis, j, resolution):
        # the criterion-8 path against the full-grid oracle, which keeps
        # every mode: the eta points differ by a lambda offset of about
        # 1e-11, the roundoff of the two grids' D2 mean-mode eigenvalues
        # amplified by g^aa at the axis
        mode, truncation = ModeIndex(axis, j), 16
        cert = check_cr_hypotheses(mode, truncation=truncation, resolution=resolution)
        run = trace_branch(mode, s_max=0.02, n_steps=10, resolution=resolution,
                           truncation=truncation, certificate=cert)
        full = _full_grid_points(mode, cert, 0.02, 10, truncation)
        assert run.termination == "completed" and len(run.points) == 11
        off = np.arange(truncation + 1) % j != 0
        for point, (profile, iters, neumann) in zip(run.points[1:], full):
            assert abs(point.lam - profile.coeffs[0]) <= 1e-10
            assert np.max(np.abs(point.profile.coeffs - profile.coeffs)) <= 1e-10
            assert point.newton_iters == iters
            assert np.max(np.abs(profile.coeffs[off])) <= 1e-13
            assert np.max(np.abs(point.neumann - neumann)) <= 1e-8 * np.max(np.abs(neumann))

    def test_tangent_jacobian_solves_one_direction_per_sector_unknown(self, monkeypatch):
        # truncation 16, j = 2: lambda and b_4 .. b_16, 8 directions, not 16
        original = branch.flux_tangents
        directions = []

        def record(op, fld, modes):
            directions.append(list(modes))
            return original(op, fld, modes)

        monkeypatch.setattr(branch, "flux_tangents", record)
        monkeypatch.setattr(branch, "CHORD_CONTRACTION", 0.0)
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(40, 36), truncation=16)
        assert run.points[-1].tangent_jacobians == 1 and run.points[-1].defect < 1e-6
        assert directions == [[0, 4, 6, 8, 10, 12, 14, 16]]

    # the certificate's own grid and truncation, a deeper truncation and
    # another grid: the last two compute the eigenvalues on the run's grid
    @pytest.mark.parametrize("resolution, truncation",
                             [((48, 32), 12), ((48, 32), 14), ((40, 32), 8)])
    def test_small_amplitude_point_builds_no_tangent_jacobian(
            self, cert_xi2, monkeypatch, resolution, truncation):
        tangents = _record_calls(monkeypatch, branch, "flux_tangents")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=resolution, truncation=truncation,
                           certificate=cert_xi2)
        assert run.points[-1].defect < 1e-6
        assert tangents == [] and run.points[-1].tangent_jacobians == 0

    def test_chord_step_that_never_contracts_builds_one_tangent_jacobian(
            self, cert_xi2, monkeypatch):
        # a chord Jacobian a thousand times too large takes steps that
        # leave the residual where it was
        chord = branch._chord_jacobian
        monkeypatch.setattr(branch, "_chord_jacobian",
                            lambda *args: 1e3 * chord(*args))
        tangents = _record_calls(monkeypatch, branch, "flux_tangents")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert run.points[-1].defect < 1e-6
        assert len(tangents) == 1 and run.points[-1].tangent_jacobians == 1

    def test_chord_jacobian_is_mode_diagonal(self, cert_xi2):
        sigmas = cert_xi2.details["sigmas"]
        jac = branch._chord_jacobian(ModeIndex(XI, 2), 0.01, sigmas, 2.0, [1, 2, 3, 4])
        assert np.array_equal(jac, [[0.0, sigmas[1], 0.0, 0.0],
                                    [0.02, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, sigmas[3], 0.0],
                                    [0.0, 0.0, 0.0, sigmas[4]]])
        # the equations of the sector: the multiples of j only
        jac = branch._chord_jacobian(ModeIndex(XI, 2), 0.01, sigmas, 2.0, [2, 4, 6])
        assert np.array_equal(jac, [[0.02, 0.0, 0.0],
                                    [0.0, sigmas[4], 0.0],
                                    [0.0, 0.0, sigmas[6]]])

    @pytest.mark.parametrize("axis, reach", [(XI, 0.35), (ETA, 0.25)])
    def test_reach_is_kept(self, axis, reach):
        # 48x32, truncation 12, twelve steps to s = 0.6: xi stalls past
        # 0.35, eta leaves the admissible band past 0.25
        try:
            run = trace_branch(ModeIndex(axis, 2), s_max=0.6, n_steps=12,
                               resolution=(48, 32), truncation=12)
        except NumericalError as exc:
            run = exc.partial_run
        assert run.points[-1].s >= reach - 1e-12


class TestFailurePaths:
    def test_line_search_that_never_descends_fails(self, cert_xi2, monkeypatch):
        real = branch._residual
        calls = []

        def residual(mode, x, s, truncation, grid):
            res, fld, op = real(mode, x, s, truncation, grid)
            calls.append(x)
            if len(calls) > 1:          # every trial step: no descent
                res = res + 1.0
            return res, fld, op

        monkeypatch.setattr(branch, "_residual", residual)
        x0 = np.concatenate([[cert_xi2.lambda_j], np.zeros(7)])
        with pytest.raises(NumericalError, match="five step halvings") as info:
            branch._newton_solve(ModeIndex(XI, 2), x0, 0.005, 8, discrete.TubeGrid(XI, 48, 32),
                                 1e-10, 12, cert_xi2.details["sigmas"],
                                 cert_xi2.transversality_slope)
        # the start, one discarded chord trial and five halvings
        assert len(calls) == 7
        details = info.value.details
        assert details["s"] == 0.005 and details["iterations"] == 0
        assert details["jacobian"] == "tangent" and details["contraction"] > 1.0
        assert len(details["residuals"]) == 1

    def test_no_convergence_carries_the_residual_history(self, cert_xi2):
        x0 = np.concatenate([[cert_xi2.lambda_j], np.zeros(7)])
        with pytest.raises(NumericalError, match="no convergence in 1 iterations") as info:
            branch._newton_solve(ModeIndex(XI, 2), x0, 0.005, 8, discrete.TubeGrid(XI, 48, 32),
                                 1e-10, 1, cert_xi2.details["sigmas"],
                                 cert_xi2.transversality_slope)
        details = info.value.details
        assert details["iterations"] == 1 and details["jacobian"] == "chord"
        assert "contraction" not in details
        first, second = details["residuals"]
        assert second <= branch.CHORD_CONTRACTION * first
        # one GMRES count per accepted iterate, as for the residuals
        assert len(details["krylov_iterations"]) == 2 and min(details["krylov_iterations"]) > 0

    def test_band_exit_during_retry_ends_the_run(self, cert_xi2, monkeypatch):
        attempts = []

        def newton_solve(mode, x0, s, *args):
            attempts.append(s)
            if len(attempts) == 1:
                raise NumericalError("diverged")
            raise DomainValidationError("profile leaves the admissible band")

        monkeypatch.setattr(branch, "_newton_solve", newton_solve)
        run = trace_branch(ModeIndex(XI, 2), s_max=0.01, n_steps=1,
                           resolution=(48, 32), truncation=8, certificate=cert_xi2)
        assert attempts == [0.01, 0.005]
        assert run.termination.startswith("profile left the admissible band at s=0.01000")
        assert len(run.points) == 1

    def test_newton_failure_carries_its_context(self, cert_xi2, monkeypatch):
        real = branch._newton_solve

        def newton_solve(mode, x0, s, *args):
            if s > 0.006:               # the second point and its retry
                raise NumericalError("diverged")
            return real(mode, x0, s, *args)

        monkeypatch.setattr(branch, "_newton_solve", newton_solve)
        with pytest.raises(NumericalError, match="even after step halving") as info:
            trace_branch(ModeIndex(XI, 2), s_max=0.01, n_steps=2,
                         resolution=(48, 32), truncation=8, certificate=cert_xi2)
        assert info.value.details == {"mode": ["xi", 2], "s": 0.01, "last_good_s": 0.005,
                                      "resolution": (48, 32), "truncation": 8}
        assert len(info.value.partial_run.points) == 2


class TestReport:
    def test_report_rows(self, run_xi2):
        rep = branch_report(run_xi2)
        assert rep.termination == "completed"
        assert len(rep.rows) == len(run_xi2.points)
        assert rep.max_defect < 1e-6
        assert rep.max_divergence_gap < 1e-6
        # half-volume tubes: kernel mode 2 bifurcates at quarter pi
        for lo, hi in [rep.volume_fraction_range]:
            assert 0.49 < lo <= hi < 0.52
        s_row = rep.rows[0]
        assert s_row["s"] == 0.0 and abs(s_row["lambda"] - np.pi / 4) < 1e-9

    def test_leading_modes_are_reported(self, run_xi2):
        rep = branch_report(run_xi2)
        lead = rep.rows[-1]["leading_modes"]
        assert lead and lead[0][0] == 2     # kernel frequency dominates
