import numpy as np
import pytest

from serrin import branch, discrete, modes
from serrin.errors import AnalysisError, DomainValidationError, NumericalError
from serrin.fourier import CosineSeries
from serrin.geometry import Axis, BoundaryProfile, ModeIndex
from serrin.branch import branch_report, check_cr_hypotheses, trace_branch
from serrin.linearize import apply_L, constant_operator
from serrin.torsion import serrin_defect, solve_torsion

XI, ETA = Axis.XI, Axis.ETA


def _fd_jacobian(mode, x, s, truncation, grid, h):
    """Central-difference Jacobian of the projected flux equations: the oracle."""
    jac = np.empty((truncation, truncation))
    for col in range(truncation):
        step = np.zeros(truncation)
        step[col] = h
        res_p = branch._residual(mode, x + step, s, truncation, grid)[0]
        res_m = branch._residual(mode, x - step, s, truncation, grid)[0]
        jac[:, col] = (res_p - res_m) / (2.0 * h)
    return jac


def _record_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to log its first argument; returns the log."""
    calls = []
    original = getattr(owner, name)

    def record(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, record)
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

    def test_builds_no_two_dimensional_operator(self, monkeypatch):
        calls = []
        fget = discrete.TubeOperator.lu.fget

        def lu(op):
            calls.append(op)
            return fget(op)

        monkeypatch.setattr(discrete.TubeOperator, "lu", property(lu))
        cert = check_cr_hypotheses(ModeIndex(XI, 2), truncation=8, resolution=(48, 32))
        assert cert.passed and calls == []

    def test_truncation_below_the_kernel_mode_is_rejected_before_any_solve(self, monkeypatch):
        calls = _record_calls(monkeypatch, branch, "find_lambda_n")
        with pytest.raises(DomainValidationError, match="truncation 1"):
            check_cr_hypotheses(ModeIndex(XI, 2), truncation=1)
        assert calls == []

    def test_failure_carries_its_context(self):
        with pytest.raises(AnalysisError, match="hypothesis \\(iii\\)") as info:
            check_cr_hypotheses(ModeIndex(XI, 2), truncation=8, resolution=(48, 32),
                                gap_floor=10.0)
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
        factorized = _record_calls(monkeypatch, discrete.spla, "splu")
        built = _record_calls(monkeypatch, discrete.MatrixFreeTubeOperator, "__init__")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert run.points[-1].defect < 1e-6
        assert assembled == [] and factorized == []
        assert 0 < len(built) <= 4

    def test_start_reuses_the_certificate_field(self, cert_xi2, monkeypatch):
        built = []
        init = discrete.MatrixFreeTubeOperator.__init__

        def record(op, profile, *args, **kwargs):
            built.append(profile)
            init(op, profile, *args, **kwargs)

        monkeypatch.setattr(discrete.MatrixFreeTubeOperator, "__init__", record)
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=1,
                           resolution=(48, 32), truncation=12, certificate=cert_xi2)
        assert built and not any(p.is_constant for p in built)
        assert np.array_equal(run.points[0].neumann, cert_xi2.lambda_field.neumann)

    def test_one_grid_serves_the_whole_run(self, monkeypatch):
        # certificate included: one stencil table and one trace table, each
        # one fd_weights call, and no continued point builds stencils
        weights = _record_calls(monkeypatch, discrete, "fd_weights")
        stencils = _record_calls(monkeypatch, discrete.RadialStencils, "__init__")
        run = trace_branch(ModeIndex(XI, 2), s_max=0.005, n_steps=2,
                           resolution=(40, 32), truncation=8)
        assert len(run.points) == 3 and run.points[-1].defect < 1e-6
        assert len(weights) == 2 and len(stencils) == 1
        assert run.certificate.grid.stencils is stencils[0]

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
        jac = branch._chord_jacobian(ModeIndex(XI, 2), 0.01, sigmas, 2.0, [1, 3, 4])
        assert np.array_equal(jac, [[0.0, sigmas[1], 0.0, 0.0],
                                    [0.02, 0.0, 0.0, 0.0],
                                    [0.0, 0.0, sigmas[3], 0.0],
                                    [0.0, 0.0, 0.0, sigmas[4]]])

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
            branch._newton_solve(ModeIndex(XI, 2), x0, 0.005, 8, cert_xi2.grid,
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
            branch._newton_solve(ModeIndex(XI, 2), x0, 0.005, 8, cert_xi2.grid,
                                 1e-10, 1, cert_xi2.details["sigmas"],
                                 cert_xi2.transversality_slope)
        details = info.value.details
        assert details["iterations"] == 1 and details["jacobian"] == "chord"
        assert "contraction" not in details
        first, second = details["residuals"]
        assert second <= branch.CHORD_CONTRACTION * first

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
