import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from serrin import discrete
from serrin.discrete import (HALF_WIDTH, MatrixFreeTubeOperator, RadialStencils,
                             StraightTubeOperator, TubeGrid, TubeOperator, fd_weights,
                             radial_grid)
from serrin.errors import ConfigError, NumericalError
from serrin.geometry import Axis, BoundaryProfile

from oracles import fd2_grid, row_loop_entries, split_csc

GRIDS = [(8, 4), (64, 64), (256, 48)]
# the grid of each angle scheme: the package's Fourier coupling and the
# second-order reference of the oracles
SCHEMES = {"fourier": TubeGrid, "fd2": fd2_grid}


def _fornberg(x0, x, max_order):
    """Fornberg's recursion on one point, scalar by scalar: the oracle."""
    n = len(x)
    c = np.zeros((n, max_order + 1))
    c1 = 1.0
    c4 = x[0] - x0
    c[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def _windows(t):
    """Extended radial nodes and each row's stencil window, as the table reads them."""
    hw = HALF_WIDTH
    width = 2 * hw + 1
    ext = np.concatenate([-t[hw - 1::-1], t, [1.0]])
    return [ext[min(i, ext.size - width):][:width] for i in range(t.size)]


class TestFdWeights:
    @pytest.mark.parametrize("n_t, m", GRIDS)
    @pytest.mark.parametrize("half_period", [False, True])
    def test_stencil_table_equals_the_scalar_recursion(self, n_t, m, half_period):
        t = radial_grid(n_t)
        st = RadialStencils(t, m, m // 2 if half_period else 0)
        for i, window in enumerate(_windows(t)):
            w = _fornberg(t[i], [float(v) for v in window], 2)
            assert np.array_equal(st.w1[i], w[:, 1]) and np.array_equal(st.w2[i], w[:, 2])
        q = min(2 * HALF_WIDTH + 2, n_t + 1)
        tw = _fornberg(1.0, [*t[-(q - 1):].tolist(), 1.0], 1)[:, 1]
        assert np.array_equal(st.trace_interior, tw[:-1])
        assert st.trace_boundary == tw[-1]

    def test_scalar_point_keeps_its_shape(self):
        x = [-0.3, 0.1, 0.25, 0.6, 1.0]
        w = fd_weights(0.2, x, 3)
        assert w.shape == (5, 4)
        assert np.array_equal(w, _fornberg(0.2, x, 3))

    @pytest.mark.parametrize("n_t, m", GRIDS)
    def test_exact_on_monomials(self, n_t, m):
        t = radial_grid(n_t)
        x = np.array(_windows(t))
        w = fd_weights(t, x, 2)
        for p in range(7):
            for d in range(3):
                terms = w[:, :, d] * x ** p
                exact = (math.perm(p, d) * t ** (p - d)) if p >= d else np.zeros(n_t)
                scale = np.abs(terms).sum(axis=1) + np.abs(exact)
                err = np.abs(terms.sum(axis=1) - exact)
                assert np.all(err <= 1e-8 * scale), f"x^{p}, order {d}"


# the constant, j = 2 and j = 3 profiles, the latter two with side modes
ROW_NORM_PROFILES = ([0.8], [0.8, 0.0, 0.05, 0.0, 0.01], [0.7, 0.02, 0.0, 0.08])


class TestRowNorm:
    """The sorted-ratio row norm against the assembled matrix's row sums."""

    # 48x34 has M/2 = 17 odd; 48x36 has M/4 = 9 odd.  Each size also with
    # the other axis's reflection, the grid of verify's axis-condition
    # injection, whose solves the row norm scales
    @pytest.mark.parametrize("n_t, m", [(40, 32), (48, 36), (48, 34), (64, 64)])
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_matches_the_assembled_matrix(self, axis, n_t, m):
        swapped = m // 2 if axis is Axis.XI else 0
        for grid, coeffs in itertools.product(
                (TubeGrid(axis, n_t, m), TubeGrid(axis, n_t, m, axis_shift=swapped)),
                ROW_NORM_PROFILES):
            prof = BoundaryProfile(axis, coeffs)
            oracle = TubeOperator(grid, prof)
            want = np.abs(split_csc(oracle)[0]).sum(axis=1).max()
            ops = [oracle, MatrixFreeTubeOperator(grid, prof)]
            if len(coeffs) == 1:
                # the straight tube's scalar g^ta and angle-free coefficients
                ops.append(StraightTubeOperator(grid, coeffs[0]))
            for op in ops:
                assert abs(op.row_norm - want) <= 1e-12 * want, (
                    type(op).__name__, coeffs, grid.axis_shift)

    # the 256x48 full grid, the j=2 sector of 64x64 and verify's swapped reflection
    @pytest.mark.parametrize("n_t, m, j, swapped", [(256, 48, 1, False), (64, 64, 2, False),
                                                    (256, 48, 1, True)])
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_constant_profile_takes_one_angle_column(self, axis, n_t, m, j, swapped,
                                                     monkeypatch):
        shift = (m // 2 if axis is Axis.XI else 0) if swapped else None
        grid = TubeGrid(axis, n_t, m, axis_shift=shift, symmetry=j)
        full, shapes = discrete._row_norm, []

        def spy(grid, *coeffs):
            shapes.append({np.shape(f) for f in coeffs})
            return full(grid, *coeffs)

        monkeypatch.setattr(discrete, "_row_norm", spy)
        for lam in (0.3, 0.9, 1.2):
            op = MatrixFreeTubeOperator(grid, BoundaryProfile.constant(axis, lam))
            assert all(f.shape == (n_t, grid.m_angles) for f in op._coeffs)
            # bitwise: the full (n_t, M) coefficients and the straight tube's columns
            assert op.row_norm == full(grid, *op._coeffs)
            assert op.row_norm == StraightTubeOperator(grid, lam).row_norm
        assert shapes == [{(n_t, 1)}] * 6

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_only_eta_rows_by_the_axis_keep_the_full_sum(self, axis):
        table = TubeGrid(axis, 48, 32).row_norm_table
        rows, _ = table.mixed
        if axis is Axis.XI:
            assert rows.size == 0 and not table.moved_w1.any()
        else:
            # row i < HALF_WIDTH reaches HALF_WIDTH - i rows both ways
            assert rows.size == HALF_WIDTH * (HALF_WIDTH + 1) // 2
            assert np.all(rows < HALF_WIDTH)


class TestSharedGrid:
    """Operators built on one shared grid are the operators built on their own."""

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_shared_grid_operators_are_bitwise_fresh_ones(self, axis):
        n_t, m = 40, 32
        grid = TubeGrid(axis, n_t, m)
        prof = BoundaryProfile(axis, ROW_NORM_PROFILES[1])
        t = radial_grid(n_t)
        u = np.sin(3.0 * t)[:, None] * (1.0 + 0.3 * np.cos(np.arange(m)))[None, :]
        bc = 0.5 + np.cos(np.arange(m))
        pairs = [(StraightTubeOperator(TubeGrid(axis, n_t, m), 0.8),
                  StraightTubeOperator(grid, 0.8)),
                 (MatrixFreeTubeOperator(TubeGrid(axis, n_t, m), prof),
                  MatrixFreeTubeOperator(grid, prof))]
        for fresh, shared in pairs:
            assert shared.grid is grid and fresh.grid is not grid
            assert np.array_equal(shared.apply(u, bc), fresh.apply(u, bc))
            assert np.array_equal(shared.solve(-1.0, bc), fresh.solve(-1.0, bc))
            assert shared.row_norm == fresh.row_norm

    def test_grid_is_read_only(self):
        grid = TubeGrid(Axis.ETA, 40, 32)
        for array in (grid.t, grid.angles, grid.d1a, grid.d2a, grid.stencils.w1,
                      grid.stencils.colmap):
            with pytest.raises(ValueError):
                array[0] = 0.0

    # the operators take their sizes from the grid, so the grid left to
    # reject is one without the straight tube's mode split: an injected
    # shift one node off the default, on each axis
    @pytest.mark.parametrize("grid_args", [
        ((Axis.ETA, 40, 32), {"axis_shift": 15}), ((Axis.XI, 40, 32), {"axis_shift": 1})])
    def test_a_shift_without_the_mode_split_is_rejected(self, grid_args):
        args, kwargs = grid_args
        grid = TubeGrid(*args, **kwargs)
        with pytest.raises(ConfigError, match="needs axis shift 0 or 16, not"):
            StraightTubeOperator(grid, 0.8)
        with pytest.raises(ConfigError, match="needs axis shift 0 or 16, not"):
            MatrixFreeTubeOperator(grid, BoundaryProfile(grid.axis, [0.8, 0.0, 0.0, 0.05]))
        # the oracle assembles and factorizes on any grid
        assert TubeOperator(grid, BoundaryProfile.constant(grid.axis, 0.8)).lu.nnz > 0

    # the other axis's default shift, on each axis and once on a 2 pi/3
    # sector (default shift 6): a reflection of mode factor 1 or (-1)^k,
    # on which the straight tube and its matrix-free operator, the ones of
    # verify's axis-condition injection, solve as the assembled oracle does
    @pytest.mark.parametrize("grid_args", [
        ((Axis.ETA, 40, 32), {"axis_shift": 0}), ((Axis.XI, 40, 32), {"axis_shift": 16}),
        ((Axis.ETA, 40, 36), {"axis_shift": 0, "symmetry": 3})])
    def test_the_other_axis_reflection_solves_as_the_oracle(self, grid_args):
        args, kwargs = grid_args
        grid = TubeGrid(*args, **kwargs)
        n_t, m = grid.n_t, grid.m_angles
        rng = np.random.default_rng(n_t * m)
        rhs, bc = rng.standard_normal((n_t, m)), rng.standard_normal(m)
        prof = BoundaryProfile.constant(grid.axis, 0.8)
        want = TubeOperator(grid, prof).solve(rhs, bc)
        # measured at most 5e-13
        for fast in (StraightTubeOperator(grid, 0.8), MatrixFreeTubeOperator(grid, prof)):
            got = fast.solve(rhs, bc)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), type(fast).__name__


class TestConstructorContract:
    """Each operator takes its discretization from the grid and adds its profile."""

    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_a_profile_of_the_other_axis_is_rejected(self, axis):
        other = Axis.ETA if axis is Axis.XI else Axis.XI
        grid, prof = TubeGrid(axis, 40, 32), BoundaryProfile(other, ROW_NORM_PROFILES[1])
        for build in (TubeOperator, MatrixFreeTubeOperator):
            with pytest.raises(ConfigError,
                               match=f"a {other.value} profile on a {axis.value} grid"):
                build(grid, prof)
        # the straight tube takes a radius, not a profile: its profile is
        # the constant on the grid's axis, so no other axis can reach it
        assert StraightTubeOperator(grid, 0.8).profile.axis is axis


# profiles whose modes are multiples of the symmetry order, j = 2 and j = 3
SECTOR_PROFILES = {2: [0.8, 0.0, 0.05, 0.0, 0.01], 3: [0.7, 0.0, 0.0, 0.08]}


class TestSectorGrid:
    """A grid of symmetry order j against the full grid on j-periodic fields."""

    @staticmethod
    def _periodic(j, n_t, m):
        # a j-periodic field with even and odd parts, and its boundary data
        a = 2.0 * np.pi * np.arange(m) / m
        t = radial_grid(n_t)[:, None]
        u = np.sin(3.0 * t) * (1.0 + 0.3 * np.cos(j * a) + 0.2 * np.sin(2 * j * a))
        return u, 0.5 + np.cos(j * a) - 0.1 * np.sin(j * a)

    @pytest.mark.parametrize("j, m", [(2, 32), (3, 36)])
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_sector_operators_match_the_full_grid(self, axis, j, m):
        n_t = 40
        sector = TubeGrid(axis, n_t, m, symmetry=j)
        assert sector.m_angles == m // j and sector.resolution == (n_t, m)
        assert np.array_equal(sector.angles, TubeGrid(axis, n_t, m).angles[:m // j])
        u, bc = self._periodic(j, n_t, m)
        k = m // j
        prof = BoundaryProfile(axis, SECTOR_PROFILES[j])
        full_op = MatrixFreeTubeOperator(TubeGrid(axis, n_t, m), prof)
        sector_op = MatrixFreeTubeOperator(sector, prof)
        want = full_op.apply(u, bc)
        got = sector_op.apply(u[:, :k], bc[:k])
        assert np.max(np.abs(got - want[:, :k])) <= 1e-12 * np.max(np.abs(want))
        rhs = np.cos(2.0 * radial_grid(n_t))[:, None] * (1.0 + np.cos(j * sector.angles))
        full = StraightTubeOperator(TubeGrid(axis, n_t, m), 0.8).solve(np.tile(rhs, j), bc)
        part = StraightTubeOperator(sector, 0.8).solve(rhs, bc[:k])
        # the mean-mode eigenvalue of each grid's D2 is 0 only to roundoff
        # (about 1e-12 here), and on the eta axis g^aa = 1/sin^2(t phi)
        # amplifies the difference: measured 4e-13 (xi) and 4e-12 (eta)
        tol = 2e-12 if axis is Axis.XI else 1e-10
        assert np.max(np.abs(part - full[:, :k])) <= tol * np.max(np.abs(full))

    @pytest.mark.parametrize("j, m", [(2, 24), (3, 24), (3, 30)])
    @pytest.mark.parametrize("axis", [Axis.XI, Axis.ETA])
    def test_row_norm_is_the_matrix_row_sum(self, axis, j, m):
        # the sector matrix, column by column from the node-by-node operator
        grid = TubeGrid(axis, 10, m, symmetry=j)
        ops = [MatrixFreeTubeOperator(grid, BoundaryProfile(axis, SECTOR_PROFILES[j])),
               StraightTubeOperator(grid, 0.8)]
        for op in ops:
            eye = np.eye(op.n_t * op.m_angles)
            matrix = np.column_stack([op.apply(e.reshape(op.n_t, op.m_angles), 0.0).ravel()
                                      for e in eye])
            want = np.abs(matrix).sum(axis=1).max()
            assert abs(op.row_norm - want) <= 1e-12 * want, type(op).__name__

    @pytest.mark.parametrize("axis, j, shift", [(Axis.XI, 3, 0), (Axis.ETA, 2, 0),
                                                (Axis.ETA, 3, 6)])
    def test_eta_reflection_moves_half_a_sector_for_odd_j(self, axis, j, shift):
        assert TubeGrid(axis, 16, 36, symmetry=j).axis_shift == shift

    @pytest.mark.parametrize("m, j, nearest", [(64, 3, 66), (30, 2, 32), (34, 4, 32)])
    def test_grid_without_an_even_sector_is_rejected(self, m, j, nearest):
        with pytest.raises(ConfigError, match=f"M = {m} .* nearest valid M is {nearest}"):
            TubeGrid(Axis.XI, 16, m, symmetry=j)


# (axis, profile, resolution, symmetry): a perturbed profile on the full
# grid of each axis, the j = 2 sector of each axis, and the eta j = 3
# sector, whose reflection moves half a sector
LIFT_CASES = [
    (Axis.XI, ROW_NORM_PROFILES[1], (40, 32), 1),
    (Axis.ETA, [0.9, 0.03, 0.05, 0.0, 0.01], (40, 32), 1),
    (Axis.XI, SECTOR_PROFILES[2], (64, 64), 2),
    (Axis.ETA, SECTOR_PROFILES[2], (64, 64), 2),
    (Axis.ETA, SECTOR_PROFILES[3], (64, 66), 3),
]


class TestBoundaryLift:
    """The Dirichlet lift on the rows that reach t = 1 against the full apply."""

    @pytest.mark.parametrize("axis, coeffs, resolution, j", LIFT_CASES)
    def test_lift_is_the_apply_on_zero_interior_values(self, axis, coeffs, resolution, j):
        grid = TubeGrid(axis, *resolution, symmetry=j)
        n_t, m = grid.n_t, grid.m_angles
        bc = np.random.default_rng(n_t * m).standard_normal(m)
        for op in (MatrixFreeTubeOperator(grid, BoundaryProfile(axis, coeffs)),
                   StraightTubeOperator(grid, coeffs[0])):
            want = op.apply(np.zeros((n_t, m)), bc)
            got = op.boundary_lift(bc)
            # the rows whose stencils reach t = 1 are the last HALF_WIDTH,
            # and the lift writes nothing else
            assert np.array_equal(np.flatnonzero(np.any(want, axis=1)),
                                  np.arange(n_t - HALF_WIDTH, n_t))
            assert np.array_equal(got[:n_t - HALF_WIDTH], want[:n_t - HALF_WIDTH])
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(op.boundary_lift(np.zeros(m)), np.zeros((n_t, m)))
            assert np.array_equal(op.boundary_lift(0.0), np.zeros((n_t, m)))


# (axis, profile, resolution, angle scheme, injected axis shift): each size,
# both axes, straight and perturbed (cross terms), both schemes, and the
# shift of serrin verify's axis-condition injection
ORACLE_CASES = [
    (Axis.XI, [0.8], (256, 48), "fourier", None),
    (Axis.ETA, [1.0], (256, 48), "fourier", None),
    (Axis.XI, [0.9, 0.03, 0.05, 0.0, 0.01], (64, 64), "fourier", None),
    (Axis.ETA, [0.8, 0.0, 0.05, 0.0, 0.01], (64, 64), "fourier", None),
    (Axis.XI, [0.7, 0.0, 0.2], (48, 32), "fd2", None),
    (Axis.ETA, [0.8], (48, 32), "fd2", None),
    (Axis.XI, [0.8], (40, 32), "fourier", 16),
    (Axis.ETA, [0.7, 0.02, 0.0, 0.08], (40, 32), "fourier", 0),
    (Axis.ETA, [0.9, 0.03, 0.05], (48, 16), "fd2", 0),
    (Axis.XI, [0.8, 0.0, 0.05, 0.0, 0.01], (48, 16), "fourier", None),
]


class TestAssembledOracle:
    """The assembled operator's band LU against SuperLU of the same matrix."""

    @pytest.mark.parametrize("axis, coeffs, resolution, scheme, shift", ORACLE_CASES)
    def test_band_lu_matches_superlu(self, axis, coeffs, resolution, scheme, shift):
        n_t, m = resolution
        op = TubeOperator(SCHEMES[scheme](axis, n_t, m, shift), BoundaryProfile(axis, coeffs))
        rng = np.random.default_rng(n_t * m)
        rhs, bc = rng.standard_normal((n_t, m)), rng.standard_normal(m)
        columns = rng.standard_normal((n_t * m, 3))
        # the sparse LU the band LU replaced, with its column ordering: the
        # 256x48 xi matrix has condition about 1e10, and SuperLU's default
        # ordering differs from this one by 5e-11 on it
        matrix, boundary_matrix = split_csc(op)
        reference = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
        want = reference.solve(rhs.ravel() - boundary_matrix @ bc).reshape(n_t, m)
        got = op.solve(rhs, bc)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
        want = reference.solve(columns)
        got = op.solve_interior(columns)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_assembly_waits_for_first_use(self, monkeypatch):
        emitted = []
        coo_entries = discrete._coo_entries

        def counted(*args):
            emitted.append(args)
            return coo_entries(*args)
        monkeypatch.setattr(discrete, "_coo_entries", counted)
        op = TubeOperator(TubeGrid(Axis.ETA, 40, 32), BoundaryProfile(Axis.ETA, [0.8, 0.0, 0.05]))
        # nothing is built before the first read of lu, which writes the
        # entries once for the band and the t = 1 lift alike
        assert emitted == [] and op._lu is None and "_boundary_entries" not in vars(op)
        lu = op.lu
        assert len(emitted) == 1 and "_boundary_entries" in vars(op)
        op.solve(-1.0, 1.0)
        op.solve_interior(np.ones((40 * 32, 2)))
        assert len(emitted) == 1 and op.lu is lu
        assert lu.nnz == lu.band.size

    def test_next_operator_allocates_no_second_band(self):
        # a caller that rebinds one name to the next radius's operator must
        # not assemble the next one while the factored one is alive
        op = TubeOperator(TubeGrid(Axis.XI, 256, 48), BoundaryProfile.constant(Axis.XI, 0.8))
        op.solve(0.0, 1.0)
        tracemalloc.start()
        try:
            nxt = TubeOperator(TubeGrid(Axis.XI, 256, 48), BoundaryProfile.constant(Axis.XI, 0.9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nxt._lu is None and peak < 2e6

    @staticmethod
    def _zero_pivot_at(monkeypatch, info):
        dgbtrf = discrete.lapack.dgbtrf

        def failing(*args, **kwargs):
            band, piv, _ = dgbtrf(*args, **kwargs)
            return band, piv, info
        monkeypatch.setattr(discrete.lapack, "dgbtrf", failing)

    def test_zero_pivot_of_the_oracle_names_its_node(self, monkeypatch):
        op = TubeOperator(fd2_grid(Axis.ETA, 40, 32), BoundaryProfile(Axis.ETA, [0.8, 0.05]))
        self._zero_pivot_at(monkeypatch, 5)
        with pytest.raises(NumericalError, match="radial row 39, angle node 27") as err:
            op.solve(-1.0, 0.0)
        # the factors number the unknowns in reverse: column 4 is the fifth
        # unknown from the end
        assert err.value.details == {
            "info": 5, "radial_row": 39, "angle_node": 27, "resolution": (40, 32),
            "symmetry": 1, "axis": "eta", "profile": [0.8, 0.05]}

    def test_zero_pivot_of_the_straight_tube_names_its_mode(self, monkeypatch):
        grid = TubeGrid(Axis.XI, 40, 32, symmetry=2)
        self._zero_pivot_at(monkeypatch, 40 + 3)
        with pytest.raises(NumericalError, match="mode 2, radial row 2") as err:
            StraightTubeOperator(grid, 0.8)
        # the sector's mode 1 is the circle's mode 2
        assert err.value.details == {
            "info": 43, "mode": 2, "radial_row": 2, "resolution": (40, 32),
            "symmetry": 2, "axis": "xi", "profile": [0.8]}


class TestNonFiniteSolve:
    @pytest.mark.parametrize("build", [
        lambda grid, prof: TubeOperator(grid, prof),
        lambda grid, prof: StraightTubeOperator(grid, prof.coeffs[0]),
        lambda grid, prof: MatrixFreeTubeOperator(grid, prof)],
        ids=["assembled", "straight", "matrix-free"])
    def test_nan_right_hand_side_carries_the_context(self, build):
        op = build(TubeGrid(Axis.ETA, 24, 16), BoundaryProfile.constant(Axis.ETA, 0.8))
        rhs = np.full((24, 16), -1.0)
        rhs[3, 5] = np.nan
        with pytest.raises(NumericalError, match="non-finite values") as err:
            op.solve(rhs, 0.0)
        assert err.value.details == op.context


class TestTriangularSolve:
    """GMRES's triangular solve: scipy's ``solve_triangular`` call, made directly."""

    @staticmethod
    def _hessenberg(rng, n):
        # GMRES's (cap + 1, cap) array, C-ordered, its leading columns filled
        hess = np.zeros((201, 200))
        hess[:n + 1, :n] = np.triu(rng.standard_normal((n + 1, n)), -1)
        hess[np.arange(n), np.arange(n)] = rng.uniform(0.5, 2.0, n)
        return hess

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_equals_solve_triangular_bit_for_bit(self, rng, k):
        hess, g = self._hessenberg(rng, 40), rng.standard_normal(201)
        a, b = hess[:k, :k], g[:k]
        before = b.copy()
        y = discrete._solve_upper(a, b, {})
        assert _same_bits(b, before)        # the right-hand side is not overwritten
        assert _same_bits(y, solve_triangular(a, b))

    def test_zero_diagonal_raises_with_the_context(self, rng):
        hess = self._hessenberg(rng, 5)
        hess[2, 2] = 0.0
        with pytest.raises(NumericalError, match="zero diagonal at row 2") as err:
            discrete._solve_upper(hess[:5, :5], np.ones(5), {"axis": "xi"})
        assert err.value.details == {"info": 3, "axis": "xi"}


# (axis, profile, resolution, angle scheme, injected axis shift, symmetry):
# both axes, both schemes, symmetry 1, 2 and 3, straight (no cross block)
# and perturbed profiles, the shifts of serrin verify's axis-condition
# injection at its 48x16, and the library default 256x48
EMISSION_CASES = [
    (Axis.XI, [0.8], (256, 48), "fourier", None, 1),
    (Axis.ETA, [1.0], (256, 48), "fourier", None, 1),
    (Axis.XI, [0.9, 0.03, 0.05, 0.0, 0.01], (64, 64), "fourier", None, 1),
    (Axis.ETA, [0.9, 0.03, 0.05, 0.0, 0.01], (64, 64), "fourier", None, 1),
    (Axis.XI, SECTOR_PROFILES[2], (64, 64), "fourier", None, 2),
    (Axis.ETA, SECTOR_PROFILES[2], (64, 64), "fourier", None, 2),
    (Axis.ETA, [0.8], (64, 64), "fourier", None, 2),
    (Axis.XI, SECTOR_PROFILES[3], (64, 66), "fourier", None, 3),
    (Axis.ETA, SECTOR_PROFILES[3], (64, 66), "fourier", None, 3),
    (Axis.XI, [0.7, 0.0, 0.2], (48, 32), "fd2", None, 1),
    (Axis.ETA, [0.8], (48, 32), "fd2", None, 1),
    (Axis.ETA, [0.8, 0.0, 0.05, 0.0, 0.01], (40, 32), "fd2", None, 2),
    (Axis.XI, [0.8], (48, 16), "fourier", 8, 1),
    (Axis.ETA, [1.0], (48, 16), "fourier", 0, 1),
    (Axis.ETA, [0.7, 0.02, 0.0, 0.08], (40, 66), "fourier", 0, 1),
]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLoopFreeEmission:
    """The whole-array COO emission against the row-by-row loop, bit for bit."""

    @pytest.mark.parametrize("axis, coeffs, resolution, scheme, shift, j", EMISSION_CASES)
    def test_entries_and_matrices_equal_the_row_loop(self, axis, coeffs, resolution,
                                                     scheme, shift, j):
        grid = SCHEMES[scheme](axis, *resolution, shift, symmetry=j)
        op = TubeOperator(grid, BoundaryProfile(axis, coeffs))
        # a perturbed profile turns the cross block on
        assert bool(np.any(op._coeffs[1])) == (len(coeffs) > 1)
        want = row_loop_entries(grid, op._coeffs)
        got = discrete._coo_entries(grid, op._coeffs)
        assert all(_same_bits(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("coeffs", [[0.8], [0.8, 0.0, 0.05, 0.0, 0.01]])
    def test_emission_allocates_little_beyond_its_arrays(self, coeffs):
        # over its arrays at 256x48, the row loop peaks at 0.08 MB and this
        # emission at about 1 MB: the radial stencil columns and one scratch
        grid = TubeGrid(Axis.ETA, 256, 48)
        op = TubeOperator(grid, BoundaryProfile(Axis.ETA, coeffs))
        tracemalloc.start()
        try:
            entries = discrete._coo_entries(grid, op._coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - sum(a.nbytes for a in entries) < 2e6
