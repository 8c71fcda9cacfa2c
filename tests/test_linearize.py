import tracemalloc
from unittest import mock

import numpy as np
import pytest

from serrin import discrete, torsion
from serrin.discrete import (MatrixFreeTubeOperator, StraightTubeOperator, TubeGrid,
                             TubeOperator)
from serrin.errors import ConfigError, DomainValidationError, NumericalError
from serrin.fourier import CosineSeries
from serrin.geometry import Axis, BoundaryProfile, ModeIndex
from serrin.linearize import (apply_L, constant_operator, fd_derivative_H,
                              harmonic_extend, resolvent_apply)
from serrin.spectrum import sigma
from serrin.torsion import RESIDUAL_CAP, torsion_field

from oracles import solve_l

XI, ETA = Axis.XI, Axis.ETA


class TestHarmonicExtension:
    def test_constant_data_extends_to_constant(self):
        ext = harmonic_extend(0.7, CosineSeries([1.0]), axis=XI,
                              resolution=(48, 16))
        assert np.max(np.abs(ext.field - 1.0)) < 1e-11
        assert np.max(np.abs(ext.t_trace)) < 1e-9

    def test_pure_mode_has_product_structure(self):
        lam = 0.9
        ext = harmonic_extend(lam, CosineSeries.basis(2), axis=XI)
        ms = solve_l(0, 2, lam, t_grid=ext.t)
        prod = ms.values[:, None] * np.cos(2 * ext.angles)[None, :]
        assert np.max(np.abs(ext.field - prod)) < 1e-8

    def test_superposition(self):
        lam = 0.8
        w = CosineSeries([0.0, 1.0, 0.0, 1.0])      # cos + cos(3.)
        both = harmonic_extend(lam, w, axis=XI, resolution=(64, 16))
        one = harmonic_extend(lam, CosineSeries.basis(1), axis=XI, resolution=(64, 16))
        three = harmonic_extend(lam, CosineSeries.basis(3), axis=XI, resolution=(64, 16))
        assert np.max(np.abs(both.field - one.field - three.field)) < 1e-9

    def test_lambda_validation(self):
        with pytest.raises(DomainValidationError):
            harmonic_extend(1.6, CosineSeries.basis(1))

    def test_residual_failure_carries_the_operator_context(self, monkeypatch):
        # the same details as a torsion solve's residual failure
        monkeypatch.setattr(torsion, "RESIDUAL_CAP", 0.0)
        op = StraightTubeOperator(TubeGrid(ETA, 40, 32), 0.9)
        with pytest.raises(NumericalError, match="harmonic extension residual") as info:
            harmonic_extend(0.9, CosineSeries.basis(2), axis=ETA, operator=op)
        details = info.value.details
        assert 0.0 < details.pop("residual") < 1e-10
        assert details == {"cap": 0.0, "resolution": (40, 32), "symmetry": 1, "axis": "eta",
                           "profile": [0.9]}

    # a perturbed profile, then a radius off by one part in 1e12
    @pytest.mark.parametrize("profile, lam, clash", [
        ([0.8, 0.0, 0.05], 0.8,
         r"straight tube 0\.8 vs the operator's profile \[0\.8, 0\.0, 0\.05\]"),
        ([0.8], 0.8 + 1e-12, r"straight tube 0\.800000000001 vs the operator's profile \[0\.8\]")],
        ids=["perturbed", "radius"])
    def test_an_operator_of_another_profile_is_rejected(self, profile, lam, clash):
        op = MatrixFreeTubeOperator(TubeGrid(XI, 40, 32), BoundaryProfile(XI, profile))
        with pytest.raises(DomainValidationError, match=clash):
            harmonic_extend(lam, CosineSeries.basis(2), axis=XI, operator=op)


class TestApplyL:
    def test_eigenfunction_identity_with_leakage(self):
        for axis in (XI, ETA):
            for lam in (0.4, 1.0):
                op = constant_operator(axis, lam)
                for n in range(0, 9):
                    la = apply_L(lam, CosineSeries.basis(n), axis=axis, operator=op)
                    sig = sigma(ModeIndex(axis, n), lam)
                    dev = np.max(np.abs(la.samples - sig * np.cos(n * la.angles)))
                    assert dev < 1e-7, f"{axis} n={n} lam={lam}: {dev:.2e}"
                    assert la.leakage({n}) < 1e-8

    def test_an_operator_of_another_tube_is_rejected(self):
        # unchecked, this returned the coefficient 0.7063 of the eta 0.9 tube
        # (sigma_2 = 0.5950 there) labelled xi at 0.8 (sigma_2 = 0.0301)
        op = constant_operator("eta", 0.9, (48, 16))
        with pytest.raises(DomainValidationError) as info:
            apply_L(0.8, CosineSeries.basis(2), axis="xi", resolution=(256, 48), operator=op)
        message = str(info.value)
        for clash in ("axis xi vs the operator's eta",
                      "straight tube 0.8 vs the operator's profile [0.9]",
                      "resolution (256, 48) vs the operator's (48, 16)"):
            assert clash in message
        # the operator's own radius, axis and resolution, in any spelling
        la = apply_L(0.9, CosineSeries.basis(2), axis="ETA", resolution="48x16", operator=op)
        assert la.axis is ETA and la.lam == 0.9

    def test_axis_name_in_any_case(self):
        upper = apply_L(0.8, CosineSeries.basis(2), axis="XI", resolution=(32, 16))
        lower = apply_L(0.8, CosineSeries.basis(2), axis="xi", resolution=(32, 16))
        assert upper.axis is XI
        assert np.array_equal(upper.samples, lower.samples)

    def test_constant_data_returns_zero_mode_eigenvalue(self):
        lam = 0.85
        la = apply_L(lam, CosineSeries([1.0]), axis=ETA)
        assert np.max(np.abs(la.samples + 0.5 / np.cos(lam) ** 2)) < 1e-9

    def test_kernel_direction_at_root(self, lambda_roots):
        point = lambda_roots[(XI, 2)]
        la = apply_L(point.lambda_n, CosineSeries.basis(2), axis=XI)
        assert np.max(np.abs(la.samples)) < 1e-6


class TestConstantOperator:
    """The matrix-free straight tube: its cost, and that its leakage still measures."""

    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("lam", [0.05, 0.8, 1.55])
    @pytest.mark.parametrize("resolution", [(64, 64), (256, 48)])
    def test_every_solve_takes_at_most_two_krylov_iterations(self, axis, lam, resolution):
        # the straight-tube preconditioner is the operator itself up to roundoff
        op = constant_operator(axis, lam, resolution)
        for n in [*range(9), resolution[1] // 2]:
            apply_L(lam, CosineSeries.basis(n), axis=axis, operator=op)
            assert op.iterations <= 2, f"{axis} lam={lam} {resolution} n={n}"

    def test_one_radius_at_the_default_grid_stays_below_10_mb(self):
        # measured 6.2 MB; a 201-row Krylov basis allocated per solve took
        # it to 21.5 MB, the assembled band and its factors to 71.6 MB
        tracemalloc.start()
        try:
            op = constant_operator(XI, 0.8)
            apply_L(0.8, CosineSeries.basis(2), axis=XI, operator=op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_apply_L_makes_one_preconditioner_solve_and_two_applies(self, axis):
        # the Krylov step's solve and apply, and the residual's apply; the
        # boundary data enters through the lift, which applies nothing
        op = constant_operator(axis, 0.8, (64, 32))
        solve, apply = discrete.StraightTubeOperator.solve, discrete._GridOperator.apply
        with mock.patch.object(discrete.StraightTubeOperator, "solve", autospec=True,
                               side_effect=solve) as solves, \
                mock.patch.object(discrete._GridOperator, "apply", autospec=True,
                                  side_effect=apply) as applies:
            apply_L(0.8, CosineSeries.basis(2), axis=axis, operator=op)
        assert op.iterations == 1 and solves.call_count == 1 and applies.call_count == 2
        # one row each of V and Z
        assert op._krylov.shape == (2, 1, 64 * 32)

    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("coupling", [np.cos, np.sin], ids=["cosines", "sines"])
    def test_a_mode_coupling_in_the_apply_shows_as_leakage(self, monkeypatch, axis, coupling):
        # the fast path against the defect it must still see: a potential
        # 1e-5 cos(a) (or sin(a)) couples mode n to the cosines (sines) of
        # n - 1 and n + 1, about 1e-9 of the operator's row norm
        lam, n, resolution = 0.8, 2, (64, 32)
        clean = apply_L(lam, CosineSeries.basis(n), axis=axis,
                        operator=constant_operator(axis, lam, resolution))
        assert clean.leakage({n}) < 1e-8
        apply = discrete._GridOperator.apply

        def coupled(op, u, boundary_values):
            u = np.asarray(u, dtype=float).reshape(op.n_t, op.m_angles)
            return apply(op, u, boundary_values) + 1e-5 * coupling(op.angles) * u
        monkeypatch.setattr(discrete._GridOperator, "apply", coupled)
        leaky = apply_L(lam, CosineSeries.basis(n), axis=axis,
                        operator=constant_operator(axis, lam, resolution))
        assert leaky.leakage({n}) > 1e-8


def _discrete_sigma(la, n):
    """Cosine coefficient n of apply_L samples, the Nyquist mode included."""
    m = la.angles.size
    return la.samples @ np.cos(n * la.angles) * (1.0 if n in (0, m // 2) else 2.0) / m


class TestStraightTubeOperator:
    """The mode-diagonal solver against the 2-D assembly it replaces."""

    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.3])
    def test_matches_the_two_dimensional_operator(self, axis, lam):
        for (n_t, m), n_max in (((64, 64), 16), ((256, 48), 8)):
            fast = StraightTubeOperator(TubeGrid(axis, n_t, m), lam)
            slow = TubeOperator(TubeGrid(axis, n_t, m), BoundaryProfile.constant(axis, lam))
            row_norm = np.abs(slow.matrix).sum(axis=1).max()
            assert abs(fast.row_norm - row_norm) <= 1e-12 * row_norm
            for n in [*range(n_max + 1), m // 2]:
                basis = CosineSeries.basis(n)
                got = _discrete_sigma(apply_L(lam, basis, axis=axis, operator=fast), n)
                want = _discrete_sigma(apply_L(lam, basis, axis=axis, operator=slow), n)
                assert abs(got - want) < 1e-9, f"{axis} lam={lam} {n_t}x{m} n={n}"
            u_fast, u_slow = torsion_field(fast).u, torsion_field(slow).u
            assert np.max(np.abs(u_fast - u_slow)) < 1e-10

    @pytest.mark.parametrize("axis", [XI, ETA])
    @pytest.mark.parametrize("lam", [0.15, 0.8, 1.5])
    @pytest.mark.parametrize("n_t, m", [(8, 4), (64, 64), (256, 48)])
    def test_no_pivot_leaves_its_mode_block(self, axis, lam, n_t, m):
        # the modes share one block-diagonal band, which is only their
        # direct sum if partial pivoting keeps every row in its block
        piv = StraightTubeOperator(TubeGrid(axis, n_t, m), lam)._lu.piv
        assert piv.size == (m // 2 + 1) * n_t
        assert np.array_equal(piv // n_t, np.arange(piv.size) // n_t)

    @pytest.mark.parametrize("axis", [XI, ETA])
    def test_residual_catches_a_wrong_field(self, axis):
        fast = StraightTubeOperator(TubeGrid(axis, 48, 32), 0.8)
        u = fast.solve(-1.0, 0.0)
        assert fast.scaled_residual(u, -1.0, 0.0) < RESIDUAL_CAP
        assert fast.scaled_residual(u + 1e-6, -1.0, 0.0) > RESIDUAL_CAP

    def test_odd_angle_count_is_rejected(self):
        with pytest.raises(ConfigError):
            StraightTubeOperator(TubeGrid(XI, 48, 31), 0.8)


class TestFdDerivative:
    def test_matches_linearization_for_xi_mode(self):
        tab = fd_derivative_H(0.5, CosineSeries.basis(2), axis=XI)
        scale = abs(sigma(ModeIndex(XI, 2), 0.5))
        assert tab.extrapolated_deviation < 1e-4 * scale
        assert np.all(np.diff(tab.deviations[:3]) < 0.0)   # decreasing steps
        assert 1.7 < tab.slope < 2.3                       # central differences

    def test_matches_linearization_for_eta_mode(self):
        tab = fd_derivative_H(1.0, CosineSeries.basis(2), axis=ETA,
                              steps=(1e-2, 1e-3, 1e-4))
        scale = abs(sigma(ModeIndex(ETA, 2), 1.0))
        assert tab.extrapolated_deviation < 1e-4 * scale

    def test_constant_direction_reproduces_flux_derivative(self):
        # d/dlam of the constant flux -(tan lam)/2 is -1/(2 cos^2 lam)
        lam = 0.7
        tab = fd_derivative_H(lam, CosineSeries([1.0]), axis=XI,
                              steps=(1e-3, 1e-4))
        expected = -0.5 / np.cos(lam) ** 2
        assert np.max(np.abs(tab.samples - expected)) < 1e-8

    def test_inadmissible_step_rejected(self):
        with pytest.raises(DomainValidationError):
            fd_derivative_H(1.56, CosineSeries.basis(2), axis=XI, steps=(2e-2,))


class TestResolvent:
    def test_pure_mode_scaling(self):
        lam, j, m = 0.9, 2, 3
        r = resolvent_apply(lam, j, CosineSeries.basis(m), axis=XI)
        expected = 1.0 / (sigma(ModeIndex(XI, m), lam) - sigma(ModeIndex(XI, j), lam))
        assert np.isclose(r.coefficient(m), expected, rtol=1e-12)

    def test_round_trip_identity(self):
        lam, j = 0.8, 2
        sig_j = sigma(ModeIndex(XI, j), lam)
        for m in (0, 1, 3, 5, 8):
            r = resolvent_apply(lam, j, CosineSeries.basis(m), axis=XI)
            back = (sigma(ModeIndex(XI, m), lam) - sig_j) * r.coefficient(m)
            assert abs(back - 1.0) < 1e-8

    def test_zero_maps_to_zero(self):
        r = resolvent_apply(0.8, 2, CosineSeries([0.0]), axis=XI)
        assert np.all(r.coeffs == 0.0)

    def test_kernel_component_precondition(self):
        with pytest.raises(DomainValidationError):
            resolvent_apply(0.8, 2, CosineSeries.basis(2), axis=XI)


class TestDiscreteKernelStructure:
    def test_exactly_one_small_eigenvalue_at_root(self, lambda_roots):
        lam2 = lambda_roots[(XI, 2)].lambda_n
        op = constant_operator(XI, lam2, (64, 32))
        sigmas = []
        for m in range(0, 9):
            la = apply_L(lam2, CosineSeries.basis(m), axis=XI, operator=op)
            sigmas.append(la.series.coefficient(m))
        small = [m for m, s in enumerate(sigmas) if abs(s) < 1e-6]
        assert small == [2]
        others = [abs(s) for m, s in enumerate(sigmas) if m != 2]
        assert min(others) > 1e-2

    def test_transversality_sign_from_discrete_operator(self, lambda_roots):
        lam2 = lambda_roots[(XI, 2)].lambda_n
        h = 1e-4
        vals = []
        for lam in (lam2 - h, lam2 + h):
            la = apply_L(lam, CosineSeries.basis(2), axis=XI, resolution=(64, 32))
            vals.append(la.series.coefficient(2))
        slope = (vals[1] - vals[0]) / (2 * h)
        assert slope > 0.0 and abs(slope - 2.0) < 1e-3   # closed form is 2
