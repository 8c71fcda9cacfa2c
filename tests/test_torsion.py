from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from serrin import torsion
from serrin.discrete import (KRYLOV_MAX_ITER, MatrixFreeTubeOperator, StraightTubeOperator,
                             TubeGrid, TubeOperator, _GridOperator)
from serrin.errors import ConfigError, DomainValidationError, NumericalError
from serrin.geometry import (Axis, BoundaryProfile, boundary_area, laplacian_coefficients,
                             volume)
from serrin.radial import radial_flux, radial_torsion
from serrin.geometry import ModeIndex
from serrin.torsion import (flux_tangents, mean_flux, parse_resolution, serrin_defect,
                            solve_torsion, torsion_field)

from oracles import fd2_grid, split_csc

# frozen from the reference run at 64x64; guards against silent drift
DEFECT_BASELINE_08_005 = 4.8576425349e-03


class TestRadialValidation:
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_reproduces_radial_reference(self, axis, radial_fields_64):
        lam = 0.8
        fld = radial_fields_64(axis, lam)
        exact = radial_torsion(lam, fld.t * lam)[:, None]
        assert np.max(np.abs(fld.u - exact)) < 1e-9
        assert abs(np.mean(fld.neumann) - radial_flux(lam)) < 1e-6

    def test_constant_trace_has_machine_variance(self, radial_fields_64):
        fld = radial_fields_64(Axis.XI, 0.8)
        assert np.var(fld.neumann) < 1e-12
        assert serrin_defect(fld) < 1e-10

    def test_convergence_order_on_radial_case(self):
        lam = 1.3
        prof = BoundaryProfile.constant(Axis.XI, lam)
        errs = []
        for n in (24, 48, 96):
            fld = solve_torsion(prof, (n, 16))
            errs.append(np.max(np.abs(fld.u - radial_torsion(lam, fld.t * lam)[:, None])))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        # stencils are 7-point; nominal order >= 4 after grading
        assert min(order1, order2) > 3.5

    def test_maximum_principle(self):
        for coeffs in ([0.9], [0.7, 0.0, 0.1], [1.1, 0.0, 0.0, -0.08]):
            fld = solve_torsion(BoundaryProfile(Axis.XI, coeffs), (32, 32))
            assert np.min(fld.u) > 0.0

    def test_residual_is_recorded_small(self, radial_fields_64):
        assert radial_fields_64(Axis.XI, 0.8).residual < 1e-12


class TestPerturbedProfiles:
    def test_small_perturbation_stays_near_reference(self):
        lam, amp = 0.8, 1e-3
        prof = BoundaryProfile.perturbed(Axis.XI, lam, 2, amp)
        coarse = solve_torsion(prof, (48, 32))
        fine = solve_torsion(prof, (96, 64))
        # the perturbation moves the field by O(amp) only
        ref = radial_torsion(lam, coarse.t * lam)[:, None]
        assert np.max(np.abs(coarse.u - ref)) < 10 * amp
        # Richardson comparison: the two resolutions agree far below amp
        assert abs(serrin_defect(coarse) - serrin_defect(fine)) < 1e-6
        assert abs(np.mean(coarse.neumann) - np.mean(fine.neumann)) < 1e-8

    def test_defect_regression_baseline(self):
        fld = solve_torsion(BoundaryProfile(Axis.XI, [0.8, 0.0, 0.05]), (64, 64))
        assert serrin_defect(fld) == pytest.approx(DEFECT_BASELINE_08_005, rel=1e-4)
        assert serrin_defect(fld) > 1e-4     # strictly non-Serrin

    def test_even_profile_gives_even_trace(self):
        fld = solve_torsion(BoundaryProfile(Axis.ETA, [1.0, 0.0, 0.07]), (48, 32))
        h = fld.neumann
        m = h.size
        reflected = h[(-np.arange(m)) % m]    # H(-angle) at matching nodes
        assert np.max(np.abs(h - reflected)) < 1e-11

    def test_reflection_symmetry(self):
        # profiles are even in the angle, so the whole field must be too:
        # solving "phi(-angle)" is solving phi, and the field reflects onto
        # itself at matching nodes
        prof = BoundaryProfile(Axis.XI, [0.8, 0.03, 0.05, 0.01])
        fld = solve_torsion(prof, (32, 32))
        m = fld.angles.size
        refl_idx = (-np.arange(m)) % m
        assert np.max(np.abs(fld.u - fld.u[:, refl_idx])) < 1e-11

    def test_divergence_identity(self):
        prof = BoundaryProfile(Axis.XI, [0.7, 0.0, 0.0, 0.06])
        fld = solve_torsion(prof, (64, 64))
        gap = mean_flux(fld) * boundary_area(prof) + volume(prof)
        assert abs(gap) < 1e-6

    def test_linearization_consistency_order(self):
        # (H(lam + h w) - H(lam))/h approaches sigma_n(lam) w at first order
        lam, n = 0.6, 2
        from serrin.spectrum import sigma
        sig = sigma(ModeIndex(Axis.XI, n), lam)
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            prof = BoundaryProfile.perturbed(Axis.XI, lam, n, h)
            base = solve_torsion(BoundaryProfile.constant(Axis.XI, lam), (48, 32))
            pert = solve_torsion(prof, (48, 32))
            quotient = (pert.neumann - base.neumann) / h
            errs.append(np.max(np.abs(quotient - sig * np.cos(n * pert.angles))))
        slopes = np.diff(np.log(errs)) / np.diff(np.log((1e-2, 5e-3, 2.5e-3)))
        assert np.all(slopes > 0.8)          # one-sided quotient: first order


class TestAngleSchemes:
    def test_fd2_reference_coupling_passes_radial_validation(self):
        lam = 0.8
        fld = torsion_field(TubeOperator(fd2_grid(Axis.XI, 64, 32),
                                         BoundaryProfile.constant(Axis.XI, lam)))
        exact = radial_torsion(lam, fld.t * lam)[:, None]
        assert np.max(np.abs(fld.u - exact)) < 1e-9
        assert serrin_defect(fld) < 1e-10

    def test_fd2_handles_perturbed_profiles_consistently(self):
        prof = BoundaryProfile(Axis.XI, [0.8, 0.0, 0.05])
        a = torsion_field(TubeOperator(fd2_grid(Axis.XI, 48, 96), prof))
        b = solve_torsion(prof, (48, 96))
        # second-order angle coupling converges to the spectral answer
        assert np.max(np.abs(a.neumann - b.neumann)) < 5e-4


class TestDiscreteDerivatives:
    @pytest.mark.parametrize("scheme", ["fourier", "fd2"])
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_coefficients_times_derivatives_reproduce_the_matrix(self, axis, scheme):
        # a perturbed profile exercises the cross term, eta the axis shift
        prof = BoundaryProfile(axis, [0.9, 0.03, 0.05, 0.0, 0.01])
        grid = fd2_grid(axis, 40, 32) if scheme == "fd2" else TubeGrid(axis, 40, 32)
        op = TubeOperator(grid, prof)
        u = np.sin(3.0 * op.t)[:, None] * (1.0 + 0.3 * np.cos(op.angles)
                                           + 0.2 * np.sin(2.0 * op.angles))[None, :]
        bc = 0.5 + np.cos(op.angles)
        u_t, u_tt, u_aa, u_ta = op.derivatives(u, bc)
        gtt, gta, gaa, _, ct = laplacian_coefficients(prof, op.t, op.angles)
        lhs = gtt * u_tt + 2.0 * gta * u_ta + gaa * u_aa + ct * u_t
        matrix, boundary_matrix = split_csc(op)
        rhs = (matrix @ u.ravel() + boundary_matrix @ bc).reshape(u.shape)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_non_finite_tangent_solve_is_a_numerical_error(self):
        prof = BoundaryProfile(Axis.XI, [0.8, 0.0, 0.05])
        for op in (TubeOperator(TubeGrid(Axis.XI, 24, 16), prof),
                   MatrixFreeTubeOperator(TubeGrid(Axis.XI, 24, 16), prof)):
            fld = torsion_field(op)
            fld.u[3, 5] = np.nan
            with pytest.raises(NumericalError, match="tangent solve") as err:
                flux_tangents(op, fld, [0, 2])
            assert err.value.details == op.context


PROFILES = ([0.9, 0.03, 0.05, 0.0, 0.01], [0.8], [0.7, 0.0, 0.2])


class TestMatrixFreeOperator:
    """The Krylov-solved operator against the assembled one it replaces."""

    @pytest.mark.parametrize("coeffs", PROFILES)
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_matches_the_assembled_operator(self, axis, coeffs):
        prof = BoundaryProfile(axis, coeffs)
        for n_t, m in ((40, 32), (64, 64)):
            slow = TubeOperator(TubeGrid(axis, n_t, m), prof)
            fast = MatrixFreeTubeOperator(TubeGrid(axis, n_t, m), prof)
            u = np.sin(3.0 * slow.t)[:, None] * (1.0 + 0.3 * np.cos(slow.angles)
                                                 + 0.2 * np.sin(2.0 * slow.angles))[None, :]
            bc = 0.5 + np.cos(slow.angles)
            matrix, boundary_matrix = split_csc(slow)
            want = (matrix @ u.ravel() + boundary_matrix @ bc).reshape(u.shape)
            assert np.max(np.abs(fast.apply(u, bc) - want)) < 1e-12 * np.max(np.abs(want))
            row_norm = np.abs(matrix).sum(axis=1).max()
            assert abs(fast.row_norm - row_norm) < 1e-12 * row_norm
            f_slow, f_fast = torsion_field(slow), torsion_field(fast)
            assert np.max(np.abs(f_fast.u - f_slow.u)) < 1e-11
            assert np.max(np.abs(f_fast.neumann - f_slow.neumann)) < 1e-11

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_flux_tangents_match_the_direct_solve(self, axis):
        prof = BoundaryProfile(axis, PROFILES[0])
        slow = TubeOperator(TubeGrid(axis, 64, 64), prof)
        fast = MatrixFreeTubeOperator(TubeGrid(axis, 64, 64), prof)
        modes = [0, 1, 2, 3, 5, 8]
        want = flux_tangents(slow, torsion_field(slow), modes)
        got = flux_tangents(fast, torsion_field(fast), modes)
        assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_constant_profile_converges_at_once(self, axis):
        # the preconditioner is the operator itself: one step, one to mop up
        op = MatrixFreeTubeOperator(TubeGrid(axis, 64, 64), BoundaryProfile.constant(axis, 0.8))
        torsion_field(op)
        assert 1 <= op.iterations <= 2

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_a_solve_makes_one_preconditioner_solve_per_iteration(self, axis):
        op = MatrixFreeTubeOperator(TubeGrid(axis, 40, 32), BoundaryProfile(axis, PROFILES[0]))
        solve, apply = StraightTubeOperator.solve, _GridOperator.apply
        for bc in (0.0, 0.5 + np.cos(op.angles)):
            with mock.patch.object(StraightTubeOperator, "solve", autospec=True,
                                   side_effect=solve) as solves, \
                    mock.patch.object(_GridOperator, "apply", autospec=True,
                                      side_effect=apply) as applies:
                op.solve(-1.0, bc)
            assert op.iterations > 1
            assert solves.call_count == applies.call_count == op.iterations

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_solves_on_one_operator_share_its_krylov_workspace(self, axis):
        op = MatrixFreeTubeOperator(TubeGrid(axis, 40, 32), BoundaryProfile(axis, PROFILES[0]))
        assert op._krylov.size == 0
        # the torsion solve takes the most iterations (14 xi, 16 eta), so
        # the later solves and columns fit the rows it grew
        op.solve(-1.0, 0.0)
        workspace, most = op._krylov, op.iterations
        op.solve(0.0, 0.5 + np.cos(op.angles))
        most = max(most, op.iterations)
        op.solve_interior(np.random.default_rng(7).standard_normal((op.n_t * op.m_angles, 3)))
        most = max(most, op.iterations)
        assert op._krylov is workspace
        # V and Z, each doubled from one row until it holds every iteration
        assert most <= workspace.shape[1] <= 2 * (most + 1)

    def test_unpreconditioned_solve_fails_with_its_context(self):
        op = MatrixFreeTubeOperator(TubeGrid(Axis.ETA, 40, 32),
                                    BoundaryProfile(Axis.ETA, PROFILES[0]))
        op._preconditioner = SimpleNamespace(solve=lambda rhs, bc: np.array(rhs))
        with pytest.raises(NumericalError, match="GMRES") as info:
            op.solve(-1.0, 0.0)
        details = info.value.details
        assert details["iterations"] == KRYLOV_MAX_ITER and details["residual"] > details["cap"]
        assert details["resolution"] == (40, 32) and details["profile"] == PROFILES[0]
        assert details["axis"] == "eta"

    def test_residual_cap_failure_carries_its_context(self, monkeypatch):
        monkeypatch.setattr(torsion, "RESIDUAL_CAP", 0.0)
        op = MatrixFreeTubeOperator(TubeGrid(Axis.XI, 40, 32),
                                    BoundaryProfile(Axis.XI, PROFILES[2]))
        with pytest.raises(NumericalError, match="exceeds") as info:
            torsion_field(op)
        details = info.value.details
        assert details["cap"] == 0.0 and 0.0 < details["residual"] < 1e-10
        assert details["iterations"] == op.iterations > 0
        assert details["resolution"] == (40, 32) and details["profile"] == PROFILES[2]
        assert details["axis"] == "xi"


class TestEtaAxisBehavior:
    def test_eta_modes_vanish_on_the_axis(self):
        # boundary data with an odd eta mode must decay like t near t=0
        from serrin.linearize import harmonic_extend
        from serrin.fourier import CosineSeries
        ext = harmonic_extend(0.9, CosineSeries.basis(1), axis=Axis.ETA,
                              resolution=(64, 16))
        amp = np.max(np.abs(ext.field), axis=1)
        assert amp[0] < 0.02 and amp[0] < amp[len(amp) // 2]


class TestValidation:
    def test_resolution_floor(self):
        with pytest.raises(ConfigError):
            solve_torsion(BoundaryProfile.constant(Axis.XI, 0.5), (8, 8))

    def test_resolution_string(self):
        assert parse_resolution("48x32") == (48, 32)
        with pytest.raises(ConfigError):
            parse_resolution("48by32")

    @pytest.mark.parametrize("resolution", [(48.5, 32), ("48x32",), (48, float("nan")),
                                            (48, float("inf")), (48, 32, 2), 48, None])
    def test_resolution_pair_of_non_integers_is_rejected(self, resolution):
        # unchecked, (48.5, 32) became (48, 32) and the others escaped as a
        # bare ValueError, OverflowError or TypeError
        with pytest.raises(ConfigError, match="resolution must be two integers") as info:
            parse_resolution(resolution)
        assert repr(resolution) in str(info.value)

    def test_resolution_pair_of_integral_floats_is_accepted(self):
        got = parse_resolution((48.0, np.int64(32)))
        assert got == (48, 32) and all(type(n) is int for n in got)

    def test_inadmissible_profile_rejected(self):
        prof = BoundaryProfile.constant(Axis.XI, 0.5)
        prof.series.coeffs[0] = 2.0      # corrupt after construction
        with pytest.raises(DomainValidationError):
            solve_torsion(prof, (32, 16))
