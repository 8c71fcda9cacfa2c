"""Discretization of the tube Laplacian shared by the PDE-facing modules.

Radial direction: a graded mesh clustered at the boundary t = 1 (where the
torsion function steepens as the tube widens) and mildly at the axis, with
nonuniform seven-point finite-difference stencils (``HALF_WIDTH`` nodes on
each side).  No node sits on the degenerate axis t = 0: the mesh is offset
by half a cell and stencils reaching past the axis use reflected nodes.  A
function on the tube extends through the axis by

    u(-t, a) = u(t, a)            (xi-profiles: the collapsing circle is
                                   the passive one, so reflection is plain)
    u(-t, a) = u(t, a + pi)       (eta-profiles: the active circle collapses,
                                   so reflection shifts it half a period)

which reproduces the even axis behavior of mean modes and the t^m vanishing
of oscillating ones without any explicit axis condition.

Angle direction: Fourier collocation, exact frequencies for every resolved
mode, which the eigenfunction identities require.  (The tests keep a plain
second-order periodic stencil as a reference coupling, in their oracles.)

Straight tubes split by angle mode.  A constant profile gives coefficients
that depend on t only, and both the Fourier coupling and the reflection are
circulant in the angle, so the Fourier modes k = 0..M/2 decouple (the fast
Poisson solvers of Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).
Mode k sees D2 as the k-th FFT coefficient of its column (exact, Nyquist
mode included) and the reflected nodes with the factor 1 for an axis
shift of 0 (the xi default) and (-1)^k for one of M/2 (the eta default,
the half-period shift); any other shift gives a complex factor, which
couples the cosine and the sine of a mode.  :class:`StraightTubeOperator`
thus solves one banded n_t x n_t radial system per mode between an rfft
and an irfft, with the stencils of :class:`RadialStencils` that the 2-D
:class:`TubeOperator` assembles from.  The mode systems sit side by side in
one block-diagonal band, so one LAPACK ``dgbtrf`` factorizes them all and
one ``dgbtrs`` solves them all.

The assembled oracle is block-banded: a radial row reaches 3 rows outward
(5 for the one-sided stencils next to t = 1), and each carries a dense
M x M angle block.  Its COO entries are written for all radial rows at
once, each kind of block through a reshaped view of preallocated arrays
(:func:`_coo_entries`), with no loop over the rows, and summed straight
into one band, duplicates included.  It is factorized as that band by
LAPACK's ``dgbtrf`` (Gaussian elimination with partial pivoting, Golub and
Van Loan, *Matrix Computations*, section 4.3), with the unknowns numbered
in reverse so that the pivoting fill runs over the narrow side: at 256x48
the band is 529 rows of 12288 columns.  :class:`_BandLU` holds the LAPACK
layout and its failure path for both banded operators.

Who owns the grid: a :class:`TubeGrid` is the one description of a
discretization, everything that depends on the axis and the grid but not
on the profile (sizes, axis shift, symmetry order, nodes, angle matrices,
the :class:`RadialStencils` and, built on first use, the row-norm table).
Each operator is built on one, ``TubeOperator(grid, profile)``,
``StraightTubeOperator(grid, lam)`` or ``MatrixFreeTubeOperator(grid,
profile)``, adds only its profile and never writes the grid.
``branch.check_cr_hypotheses`` builds one full grid for all its straight
tubes; ``branch.trace_branch`` builds one grid of symmetry order j for
every residual's matrix-free operator and its preconditioner.  The
library keeps no cache of grids.

Symmetric fields: the straight tube is invariant under rotations of the
angle, so the torsion problem of a 2 pi/j-periodic profile has a 2 pi/j-
periodic solution.  A grid of symmetry order j holds the sector [0, 2 pi/j)
of the M-node grid, M/j nodes, with the angle matrices and the reflection
shift of the sector (see :class:`TubeGrid`).  The matrix-free and the
straight-tube operator work on it unchanged: the straight tube's mode k
there is the full grid's mode kj, and its reflected nodes carry the factor
(-1)^k of a half-sector shift (odd j) or 1 (even j, where the half turn is
a whole number of sectors).

Which operator serves which caller:

- :class:`MatrixFreeTubeOperator` serves every 2-D solve:
  ``torsion.solve_torsion``, each branch residual and its tangents, and
  ``linearize.constant_operator`` (the criterion-2 leakage check and
  ``serrin verify``'s eigen-identity check).  It applies the operator node
  by node and solves by GMRES preconditioned with the straight tube of the
  profile's mean radius, which for a straight tube is the operator itself
  up to roundoff: one Krylov iteration per solve, while the leakage is
  still measured on the node-by-node apply; its class docstring counts
  the work of a solve.  ``serrin verify``'s axis-condition injection runs
  on it too: the swapped reflection, shift M/2 on xi and 0 on eta, keeps
  the modes apart, so the preconditioner takes that grid as it takes the
  default one.
- :class:`StraightTubeOperator` serves the bifurcation certificate, the
  s = 0 branch point, and the preconditioner above.  It lifts Dirichlet
  data through ``boundary_lift`` too, before its rfft.
- :class:`TubeOperator`, the 2-D assembly with its band LU, serves only
  the tests, as the oracle that they compare the other two with; its class
  docstring says why it stays here.  The tests build the CSC matrices of
  its entries themselves, so the package loads no scipy module but its
  LAPACK extension.

The LAPACK routines come from :mod:`serrin._lapack`, scipy's compiled
wrapper loaded without the ``scipy.linalg`` package.  GMRES's triangular
solve makes the ``dtrtrs`` call of scipy's ``solve_triangular``
(:func:`_solve_upper`), so its result is scipy's bit for bit.  Numpy's
BLAS runs ``derivatives`` (the angle GEMMs of each apply) and GMRES (its
products and norms) on one thread (:mod:`serrin._blas`): at 256x48 these
calls pass OpenBLAS's threading sizes and a second thread only spins, and
on one thread their bits do not depend on the host's core count.
"""

from functools import cached_property

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it on first use otherwise)

from . import _lapack as lapack
from ._blas import one_thread
from .errors import ConfigError, NumericalError
from .fourier import angle_grid
from .geometry import Axis, BoundaryProfile, laplacian_coefficient_values, laplacian_coefficients

__all__ = ["fd_weights", "radial_grid", "fourier_diff_matrices", "RadialStencils",
           "TubeGrid", "TubeOperator", "StraightTubeOperator", "MatrixFreeTubeOperator"]

HALF_WIDTH = 3
GRADING = 3.0
# one GMRES cycle, no restart: iterations stay far below this on admissible
# profiles, and the tolerance is the roundoff level of the right-hand side
KRYLOV_MAX_ITER = 200
KRYLOV_RTOL = 1e-14


def fd_weights(x0, x, max_order):
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    ``x0`` is one point or an array of points, and ``x`` holds the n nodes
    of each, shape ``x0.shape + (n,)``: the recursion runs once,
    elementwise over the points.  Returns an array of shape
    ``x0.shape + (n, max_order+1)``; column m holds the weights of the m-th
    derivative at ``x0``.
    """
    x0 = np.asarray(x0, dtype=float)
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    c = np.zeros(x.shape + (max_order + 1,))
    c1 = 1.0
    c4 = x[..., 0] - x0
    c[..., 0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, max_order)
        c2 = 1.0
        c5 = c4
        c4 = x[..., i] - x0
        for j in range(i):
            c3 = x[..., i] - x[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


def radial_grid(n_t):
    """Half-offset graded nodes in (0, 1); the boundary node 1 is separate.

    The map composes a smoothstep with a sinh stretch, quadratic clustering
    at both ends; ``GRADING`` sets how hard the boundary end clusters.
    """
    tau = (np.arange(n_t) + 0.5) / n_t
    sig = tau * tau * (3.0 - 2.0 * tau)
    return 1.0 - np.sinh(GRADING * (1.0 - sig)) / np.sinh(GRADING)


def fourier_diff_matrices(m_angles):
    """Dense spectral differentiation matrices on the periodic angle grid.

    Exact on trigonometric polynomials of frequency below m_angles/2, so a
    resolved Fourier mode keeps its exact eigenvalue -n^2 under D2.
    """
    col1, col2 = _fourier_columns(m_angles)
    return _circulant(col1), _circulant(col2)


def _fourier_columns(m_angles):
    """First columns of the Fourier D1 (odd in the offset) and D2 (even)."""
    if m_angles % 2:
        raise ConfigError("the angle grid needs an even number of nodes")
    m = m_angles
    k = np.arange(1, m)
    half = 0.5 * k * 2.0 * np.pi / m
    col1 = np.zeros(m)
    col1[1:] = 0.5 * (-1.0) ** k / np.tan(half)
    col2 = np.empty(m)
    col2[0] = -m * m / 12.0 - 1.0 / 6.0
    col2[1:] = -0.5 * (-1.0) ** k / np.sin(half) ** 2
    return col1, col2


def _circulant(col):
    # col holds the value at row-minus-column offset k (negative offsets wrap)
    m = col.size
    idx = (np.arange(m)[:, None] - np.arange(m)[None, :]) % m
    return col[idx]


def _check_grid(n_t, m_angles):
    if n_t < 8 or m_angles < 4:
        raise ConfigError(f"grid {n_t}x{m_angles} too coarse to assemble")
    if m_angles % 2:
        raise ConfigError("the angle grid needs an even number of nodes")


class RadialStencils:
    """Radial stencil table of one grid, shared by both tube operators.

    The extended radial nodes are the ``HALF_WIDTH`` reflections past the
    axis, the ``n_t`` interior nodes and the boundary node t = 1.  Interior
    row i reads the extended nodes ``lows[i] .. lows[i] + 2*HALF_WIDTH``
    (row i of ``nodes``) with first- and second-derivative weights
    ``w1[i]`` and ``w2[i]``.
    ``rows`` is the radial row each extended node reads (the mirrored row
    for a reflected node, ``n_t`` for the boundary node), ``reflected``
    marks the reflected ones, and ``colmap`` maps (extended node, angle) to
    a column of the 2-D operator: a reflected node is its mirrored row with
    the angle moved by ``axis_shift``, and the boundary node lands on the
    ``m_angles`` columns past the interior.  ``trace_interior`` and
    ``trace_boundary`` are the one-sided d/dt weights at t = 1.
    """

    def __init__(self, t, m_angles, axis_shift):
        hw, n_t, m = HALF_WIDTH, t.size, m_angles
        width = 2 * hw + 1
        self.m_angles, self.axis_shift = m, axis_shift
        ext = np.concatenate([-t[hw - 1::-1], t, [1.0]])
        n_ext = ext.size
        self.lows = np.minimum(np.arange(n_t), n_ext - width)
        self.nodes = self.lows[:, None] + np.arange(width)
        w = fd_weights(t, ext[self.nodes], 2)
        self.w1, self.w2 = w[..., 1], w[..., 2]

        # 32-bit indices halve the COO index arrays of the 2-D assembly
        karr = np.arange(m, dtype=np.int32)
        radial = np.arange(-hw, n_t + 1, dtype=np.int32)
        self.reflected = radial < 0
        self.rows = np.where(self.reflected, -1 - radial, radial)
        self.colmap = np.where(self.reflected[:, None],
                               self.rows[:, None] * m + (karr + axis_shift) % m,
                               self.rows[:, None] * m + karr)

        # the rows whose stencils read the boundary node t = 1, the last
        # HALF_WIDTH, with the weights of that node
        at_boundary = self.rows[self.nodes] == n_t
        self.boundary_rows = slice(int(np.argmax(at_boundary.any(axis=1))), n_t)
        self.boundary_w1, self.boundary_w2 = (
            np.where(at_boundary, w, 0.0)[self.boundary_rows].sum(axis=1)
            for w in (self.w1, self.w2))

        # one-sided derivative stencil at t = 1 matching the interior order
        q = min(2 * hw + 2, n_t + 1)
        nodes = np.concatenate([t[-(q - 1):], [1.0]])
        tw = fd_weights(1.0, nodes, 1)[:, 1]
        self.trace_interior = tw[:-1]
        self.trace_boundary = tw[-1]

    def radial_derivatives(self, u, boundary_values):
        """(u_t, u_tt) of an (n_t, M) field with Dirichlet samples on t = 1."""
        values = np.concatenate([u.ravel(), boundary_values])[self.colmap]
        windows = values[self.nodes]
        return (np.einsum("ij,ijk->ik", self.w1, windows),
                np.einsum("ij,ijk->ik", self.w2, windows))

    def t_derivative_trace(self, u, boundary_values):
        q = self.trace_interior.size
        return self.trace_interior @ u[-q:, :] + self.trace_boundary * boundary_values


class TubeGrid:
    """The part of a tube operator that does not depend on the profile.

    For one axis and an ``n_t`` x ``m_angles`` grid: the radial nodes ``t``,
    the angle nodes ``angles``, the Fourier angle matrices ``d1a`` and
    ``d2a`` and the :class:`RadialStencils` ``stencils`` with the reflection
    shift ``axis_shift``: the axis's default unless given, 0 on xi and half
    a turn of the circle on eta.  ``serrin verify``'s axis-condition
    injection gives the other axis's default instead.

    A grid of symmetry order j > 1 carries the fields that are 2 pi/j
    periodic in the angle.  It holds only the first M/j angle nodes of the
    M-node grid, the sector [0, 2 pi/j): the angle matrices are those of
    M/j nodes times j and j^2 (a Fourier mode of frequency kj is mode k of
    the sector), and the eta reflection moves by (M/2) mod (M/j) nodes,
    half a sector for odd j.  M/j must be an even integer.  ``m_angles``
    is then the sector's node count and ``resolution`` stays (n_t, M).
    Order 1 is the full grid.

    Operators only read it, so one grid serves every operator built on it;
    its arrays and those of its stencils are read-only.
    """

    def __init__(self, axis, n_t, m_angles, axis_shift=None, symmetry=1):
        self.symmetry = j = int(symmetry)
        m = _sector_nodes(int(m_angles), j)
        _check_grid(n_t, m)
        self.axis = Axis.coerce(axis)
        self.n_t, self.m_angles = int(n_t), m
        d1a, d2a = fourier_diff_matrices(m)
        if j != 1:
            # d/da is j times the derivative in the sector's own angle j a
            d1a, d2a = j * d1a, j * j * d2a
        # the eta-circle collapses on the axis, so eta-profiles reflect with
        # a half-period shift; axis_shift overrides for defect injection
        if axis_shift is None:
            axis_shift = _default_axis_shift(self.axis, m * j, m)
        self.axis_shift = int(axis_shift) % m
        self.t, self.angles = radial_grid(self.n_t), angle_grid(m * j)[:m]
        self.d1a, self.d2a = d1a, d2a
        self.stencils = RadialStencils(self.t, m, self.axis_shift)
        for array in (self.t, self.angles, d1a, d2a, *vars(self.stencils).values()):
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @property
    def resolution(self):
        """(n_t, M): the full circle's node count, whatever the symmetry order."""
        return self.n_t, self.m_angles * self.symmetry

    @cached_property
    def row_norm_table(self):
        """The grid's part of :func:`_row_norm` with the Fourier angle coupling.

        Built on first use, so an operator that never needs a row norm never
        pays for it.
        """
        return _RowNormTable(self.stencils, self.symmetry)


def _sector_nodes(m_angles, symmetry):
    """Angle nodes M/j of the 2 pi/j sector of an M-node grid.

    A :class:`ConfigError` naming M, j and the nearest valid M unless M/j is
    an even integer; order 1 leaves M to the grid's own checks.
    """
    if symmetry < 1:
        raise ConfigError(f"symmetry order must be >= 1, got {symmetry}")
    step = 2 * symmetry
    if symmetry > 1 and m_angles % step:
        below = m_angles - m_angles % step
        nearest = below + step if below == 0 or m_angles - below >= step / 2 else below
        raise ConfigError(
            f"the 2*pi/{symmetry} sector of {m_angles} angle nodes needs M/j even: "
            f"M = {m_angles} is not a multiple of {step}; the nearest valid M is {nearest}")
    return m_angles // symmetry


def _as_grid(values, shape):
    """Scalar or array data broadcast to a grid shape, as floats."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


class _GridOperator:
    """The node-by-node operator shared by the tube operators.

    Subclasses call :meth:`_use_grid` with their :class:`TubeGrid` and
    profile and set the coefficients ``_coeffs`` = (g^tt, g^ta, g^aa, c_t),
    each broadcastable to (n_t, M).
    """

    def _use_grid(self, grid, profile):
        if profile.axis is not grid.axis:
            raise ConfigError(f"a {profile.axis.value} profile on a {grid.axis.value} grid")
        self.grid, self.profile = grid, profile
        self.n_t, self.m_angles, self.t, self.angles = grid.n_t, grid.m_angles, grid.t, grid.angles
        self._stencils, self._d1a, self._d2a = grid.stencils, grid.d1a, grid.d2a
        # what every failure of this operator reports: its grid and its profile
        self.context = {"resolution": grid.resolution, "symmetry": grid.symmetry,
                        "axis": grid.axis.value, "profile": profile.coeffs.tolist()}

    @cached_property
    def row_norm(self):
        """Largest absolute row sum of the 2-D matrix, on first use, never assembled.

        Only ``scaled_residual`` reads it, so an operator that serves as a
        preconditioner never pays for it.  :func:`_row_norm` assumes the
        Fourier angle coupling: on a grid with other angle matrices (the
        tests' second-order reference) it is the Fourier operator's.  A
        constant profile's angle-free coefficients pass one column (K = 1).
        """
        coeffs = (np.broadcast_to(f, (self.n_t, self.m_angles)) for f in self._coeffs)
        return _row_norm(self.grid, *(f[:, :1] if self.profile.is_constant else f for f in coeffs))

    @one_thread
    def derivatives(self, u, boundary_values):
        """Discrete (u_t, u_tt, u_aa, u_ta) of a field, each (n_t, M).

        The assembly's own stencils, so that
        g^tt u_tt + 2 g^ta u_ta + g^aa u_aa + c_t u_t reproduces the rows
        of the assembled entries (:func:`_coo_entries`) applied to u and
        ``boundary_values``.
        """
        bc = _as_grid(boundary_values, (self.m_angles,))
        u = np.asarray(u, dtype=float).reshape(self.n_t, self.m_angles)
        u_t, u_tt = self._stencils.radial_derivatives(u, bc)
        return u_t, u_tt, u @ self._d2a.T, u_t @ self._d1a.T

    def t_derivative_trace(self, u, boundary_values):
        """d u/d t on the boundary circle, via the one-sided stencil."""
        bc = _as_grid(boundary_values, (self.m_angles,))
        return self._stencils.t_derivative_trace(u, bc)

    def apply(self, u, boundary_values):
        """The operator on an (n_t, M) field with Dirichlet samples on t = 1."""
        u_t, u_tt, u_aa, u_ta = self.derivatives(u, boundary_values)
        gtt, gta, gaa, ct = self._coeffs
        return gtt * u_tt + 2.0 * gta * u_ta + gaa * u_aa + ct * u_t

    def _lifted(self, rhs, boundary_values):
        """``rhs`` on the grid minus :meth:`boundary_lift`, skipped for zero data."""
        b = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        return b - self.boundary_lift(bc) if np.any(bc) else b

    def boundary_lift(self, boundary_values):
        """``apply(zeros, boundary_values)``: the part of the operator on t = 1.

        Only the rows whose stencils reach t = 1 (``stencils.boundary_rows``,
        the last ``HALF_WIDTH``) are nonzero, and only they are formed, from
        the stencil weights of the boundary node; the other rows are zeros.
        """
        bc = _as_grid(boundary_values, (self.m_angles,))
        st = self._stencils
        rows = st.boundary_rows
        gtt, gta, _, ct = (np.broadcast_to(f, (self.n_t, self.m_angles))[rows]
                           for f in self._coeffs)
        u_t, u_tt = st.boundary_w1[:, None] * bc, st.boundary_w2[:, None] * bc
        out = np.zeros((self.n_t, self.m_angles))
        out[rows] = gtt * u_tt + 2.0 * gta * (u_t @ self._d1a.T) + ct * u_t
        return out

    def scaled_residual(self, u, rhs, boundary_values):
        """max|A u - rhs| / (row_norm max|u| + max|rhs|), A applied node by node.

        The residual is formed on the grid, not from a solver's own
        representation, so a wrong mode bookkeeping in a solve shows.
        """
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        return _scaled(self.apply(u, boundary_values) - rhs, self.row_norm, u, rhs)


class TubeOperator(_GridOperator):
    """Assembled Laplace-Beltrami operator of ``profile`` on ``grid``: the oracle.

    Only the tests use it, to check the matrix-free and the per-mode
    operators against it; it stays in this module because the benchmark's
    tracer patches its ``__init__``, ``lu`` and ``solve`` here by name.  Any
    :class:`TubeGrid` serves, injected axis shifts included, also those
    that couple the angle modes.  Rows are the interior collocation
    equations.  The constructor computes the coefficients only, so a caller
    that rebinds one name to the operator of the next radius frees the
    previous factors before the next assembly starts.

    ``lu`` is built on its first read (the first solve): it writes the COO
    entries of :func:`_coo_entries` once, sums the interior ones straight
    into one :class:`_BandLU` with the unknowns numbered in reverse (see
    the module notes), and keeps the entries of the t = 1 columns, from
    which ``solve`` lifts any Dirichlet data.  The lift does not go through
    :meth:`boundary_lift`, so the oracle's stays independent of the
    matrix-free route.  The residual and the row norm are the inherited
    ones, applied node by node and never assembled, so its own check does
    not rest on its factors.
    """

    def __init__(self, grid, profile):
        self._use_grid(grid, profile)
        gtt, gta, gaa, _, ct = laplacian_coefficients(profile, self.t, self.angles)
        self._coeffs = tuple(np.broadcast_to(f, (self.n_t, self.m_angles)).copy()
                             for f in (gtt, gta, gaa, ct))
        self._lu = None

    @property
    def lu(self):
        """The :class:`_BandLU` of the interior entries in reversed numbering, on first use."""
        if self._lu is None:
            n, m = self.n_t * self.m_angles, self.m_angles
            rows, cols, data = _coo_entries(self.grid, self._coeffs)
            on_boundary = cols >= n
            self._boundary_entries = (rows[on_boundary], cols[on_boundary] - n,
                                      data[on_boundary])
            # unknown p is n - 1 - p in the band; add.at sums the duplicates
            interior = ~on_boundary
            rows, cols, data = (n - 1) - rows[interior], (n - 1) - cols[interior], data[interior]
            offset = rows - cols
            kl, ku = int(offset.max()), int(-offset.min())
            band = np.zeros((2 * kl + ku + 1, n), order="F")
            np.add.at(band, (kl + ku + offset, cols), data)
            del rows, cols, data, offset     # not alive while dgbtrf runs

            def locate(column):
                row, node = divmod(n - 1 - column, m)
                return {"radial_row": row, "angle_node": node}

            self._lu = _BandLU(band, kl, ku, locate, self.context)
        return self._lu

    def _solve_flat(self, b):
        # the factors number the unknowns in reverse, so b and x are reversed
        return self.lu.solve(np.array(b[::-1], order="F"))[::-1]

    def solve(self, rhs, boundary_values):
        """Solve A u = rhs with Dirichlet data on t = 1.

        ``rhs`` is the interior right-hand side (scalar or (n_t, M) array);
        ``boundary_values`` the Dirichlet samples on the angle grid (scalar
        or (M,) array).  Returns the interior field as an (n_t, M) array.
        """
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        self.lu                     # its first read keeps the t = 1 entries
        rows, cols, data = self._boundary_entries
        lift = np.bincount(rows, data * bc[cols], minlength=rhs.size)
        u = _finite(self._solve_flat(rhs.ravel() - lift), self.context)
        return u.reshape(self.n_t, self.m_angles)

    def solve_interior(self, rhs):
        """Solve A U = rhs column by column with zero Dirichlet data.

        ``rhs`` is an (n_t * M, k) array of flattened interior right-hand
        sides; all columns share the factorization in one back-solve.
        """
        return self._solve_flat(rhs)


def _coo_entries(grid, coeffs):
    """COO (rows, cols, data) of the 2-D operator with ``coeffs`` on ``grid``.

    ``coeffs`` are (g^tt, g^ta, g^aa, c_t), each (n_t, M).  Radial row i
    emits, in this order, its angle block g^aa D2, then for each of its
    stencil nodes the radial entries g^tt w2 + c_t w1 and, unless g^ta is
    zero everywhere, the cross block 2 g^ta w1 D1.  Each kind is written
    for all rows at once through a reshaped view of arrays laid out as
    (n_t, M M + width (M + M M)), so nothing the size of the arrays is
    allocated twice.  Columns from n_t M on are the M boundary nodes on
    t = 1; entries on one (row, column) are to be summed.
    """
    n_t, m, st = grid.n_t, grid.m_angles, grid.stencils
    gtt, gta, gaa, ct = coeffs
    width = st.w1.shape[1]
    has_cross = bool(np.any(gta))
    node = m + m * m * has_cross
    rows = np.empty((n_t, m * m + width * node), dtype=np.int32)
    cols = np.empty_like(rows)
    data = np.empty(rows.shape)
    row_k = np.arange(n_t * m, dtype=np.int32).reshape(n_t, m)
    col_k = st.colmap[st.nodes]

    def views(a):
        # assigning a shape raises where a reshape would copy
        angle, stencil = a[:, :m * m], a[:, m * m:]
        angle.shape = n_t, m, m
        stencil.shape = n_t, width, node
        cross = stencil[..., m:]
        if has_cross:
            cross.shape = n_t, width, m, m
        return angle, stencil[..., :m], cross

    angle, radial, cross = views(rows)
    angle[...] = row_k[:, :, None]
    radial[...] = row_k[:, None, :]
    if has_cross:
        cross[...] = row_k[:, None, :, None]
    angle, radial, cross = views(cols)
    angle[...] = row_k[:, None, :]
    radial[...] = col_k
    if has_cross:
        cross[...] = col_k[:, :, None, :]
    del col_k
    angle, radial, cross = views(data)
    np.multiply(gaa[:, :, None], grid.d2a, out=angle)
    np.multiply(gtt[:, None, :], st.w2[:, :, None], out=radial)
    scratch = np.multiply(ct[:, None, :], st.w1[:, :, None])
    radial += scratch
    if has_cross:
        np.multiply(2.0 * gta[:, None, :], st.w1[:, :, None], out=scratch)
        np.multiply(scratch[..., None], grid.d1a, out=cross)
    return rows.ravel(), cols.ravel(), data.ravel()


class _BandLU:
    """LU factors of one banded matrix: one LAPACK ``dgbtrf``, ``dgbtrs`` per solve.

    ``band`` holds the matrix in the layout ``dgbtrf`` takes, entry (r, c)
    at ``band[kl + ku + r - c, c]`` with the top ``kl`` rows free for the
    fill of partial pivoting (Golub and Van Loan, *Matrix Computations*,
    section 4.3), as a Fortran-ordered array that is factorized in place.
    ``piv`` are the 0-based row interchanges and ``nnz`` the stored entries.
    A zero pivot raises :class:`NumericalError` whose ``details`` hold
    ``info``, what ``locate`` makes of the pivot's 0-based column and
    ``context``.
    """

    def __init__(self, band, kl, ku, locate, context):
        self.kl, self.ku = kl, ku
        self.band, self.piv, info = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
        if info != 0:
            # info > 0: U(info, info) is exactly zero; info < 0: a bad argument
            where = locate(info - 1) if info > 0 else {}
            text = ", ".join(f"{key.replace('_', ' ')} {value}" for key, value in where.items())
            raise NumericalError(f"band LU factorization failed (info {info}"
                                 + (f": zero pivot at {text})" if text else ")"),
                                 details={"info": int(info), **where, **context})

    @property
    def nnz(self):
        return self.band.size

    def solve(self, b):
        """The solution for the columns of ``b``, which it may overwrite."""
        x, _ = lapack.dgbtrs(self.band, self.kl, self.ku, b, self.piv, overwrite_b=1)
        return x


class StraightTubeOperator(_GridOperator):
    """Tube Laplacian of the straight tube of radius ``lam`` on ``grid``, mode by mode.

    Its ``solve`` takes the arguments of :meth:`TubeOperator.solve`.  The
    mode split needs a reflection shift of 0 (mode factor 1) or M/2
    (factor (-1)^k), either axis's default; a ``grid`` with another is a
    :class:`ConfigError`.  The coefficients depend on t only,
    so the operator is diagonal in the angle modes k = 0..M/2: each is one
    banded n_t x n_t radial system, built from the same stencils.  The
    M/2 + 1 systems form one block-diagonal band of order (M/2 + 1) n_t,
    factorized by one :class:`_BandLU` when the operator is built;
    ``solve`` lifts nonzero Dirichlet data with :meth:`boundary_lift` and is
    one ``dgbtrs`` with the real and imaginary parts of its rfft as two
    right-hand sides.  The residual applies the operator node by
    node, not per mode.  On a grid of symmetry order j, M is the sector's
    node count and mode k is the circle's mode kj, the mode that the
    details of a zero pivot name.
    """

    def __init__(self, grid, lam):
        shift, half = grid.axis_shift, grid.m_angles // 2
        if shift not in (0, half):
            raise ConfigError(f"the straight tube needs axis shift 0 or {half}, not {shift}")
        self._use_grid(grid, BoundaryProfile.constant(grid.axis, lam))
        n_t, m, st = self.n_t, self.m_angles, self._stencils
        gtt, _, gaa, _, ct = laplacian_coefficient_values(
            grid.axis, self.t, float(lam), 0.0, 0.0)
        # the coefficients do not depend on the angle, so one angle column
        # stands for every row of the 2-D matrix
        self._coeffs = (gtt[:, None], 0.0, gaa[:, None], ct[:, None])

        coef = gtt[:, None] * st.w2 + ct[:, None] * st.w1
        nodes = st.nodes

        # radial system of mode k: the interior stencil entries, the
        # reflected ones times 1 (shift 0) or (-1)^k (shift M/2, as the eta
        # default u(-t, a) = u(t, a + pi)), and g^aa times the angular eigenvalue
        row = np.broadcast_to(np.arange(n_t)[:, None], nodes.shape)
        col = st.rows[nodes]
        interior = col < n_t
        kl = int(np.max((row - col)[interior]))
        ku = int(np.max((col - row)[interior]))
        band = (kl + ku + row - col)[interior], col[interior]
        reflected = st.reflected[nodes][interior]
        direct = np.zeros((2 * kl + ku + 1, n_t))
        mirrored = np.zeros_like(direct)
        np.add.at(direct, band, np.where(reflected, 0.0, coef[interior]))
        np.add.at(mirrored, band, np.where(reflected, coef[interior], 0.0))
        k = np.arange(m // 2 + 1)
        sign = (-1.0) ** k if shift else np.ones(k.size)
        eigen = np.fft.rfft(self._d2a[:, 0]).real
        # the mode bands side by side, mode k on columns k*n_t .. (k+1)*n_t - 1,
        # are one band of a block-diagonal matrix; filled per mode, the
        # array is the Fortran layout LAPACK works on, so the factors need
        # no copy.  Below a block's last columns the next block holds zeros,
        # so no pivot leaves its block and the factors are the mode factors.
        # The mode bands are written in place: a temporary of their size
        # would be fresh pages for every operator.
        stacked = np.empty((k.size, n_t, direct.shape[0]))
        bands = stacked.transpose(0, 2, 1)
        np.multiply(sign[:, None, None], mirrored, out=bands)
        bands += direct
        bands[:, kl + ku] += eigen[:, None] * gaa
        j = self.grid.symmetry

        def locate(column):
            mode, row = divmod(column, n_t)
            return {"mode": mode * j, "radial_row": row}

        self._lu = _BandLU(stacked.reshape(k.size * n_t, -1).T, kl, ku, locate,
                           self.context)

    def solve(self, rhs, boundary_values):
        """Solve A u = rhs with Dirichlet data on t = 1, as TubeOperator.solve."""
        b = np.fft.rfft(self._lifted(rhs, boundary_values), axis=1)
        # the real and imaginary parts of every mode are two right-hand sides
        x = np.empty((2, b.shape[1], self.n_t))
        x[0], x[1] = b.real.T, b.imag.T
        x = self._lu.solve(x.reshape(2, -1).T).T.reshape(2, b.shape[1], self.n_t)
        return _finite(np.fft.irfft((x[0] + 1j * x[1]).T, n=self.m_angles, axis=1),
                       self.context)


class MatrixFreeTubeOperator(_GridOperator):
    """Laplace-Beltrami operator of ``profile`` on ``grid``, applied without a matrix.

    Its ``solve`` and ``solve_interior`` take the arguments of the
    :class:`TubeOperator` methods; its preconditioner, on the same grid,
    checks it as every :class:`StraightTubeOperator` does.  The inherited
    ``apply`` forms g^tt u_tt + 2 g^ta u_ta + g^aa u_aa + c_t u_t node by
    node from the assembly's stencils, so it equals the assembled entries
    (:func:`_coo_entries`) applied to u and the boundary values.  Solves
    run GMRES (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986),
    right-preconditioned by the straight tube P of the profile's mean
    radius, so the residual it minimizes is the true one.

    Work per solve: ``solve`` moves nonzero Dirichlet data to the right-hand
    side with :meth:`boundary_lift`, on the rows that reach t = 1 only, and
    skips it for zero data (every torsion solve).  A solve of k Krylov
    iterations then makes k preconditioner solves and k applies: each
    z_k = P^-1 v_k is kept and the solution is Z y, as flexible GMRES
    stores it (Saad, SIAM J. Sci. Comput. 14, 1993), which with a fixed P
    is the same iteration without a last preconditioner solve.  The
    operator owns the Krylov workspace, the rows of V and Z: allocated on
    first need, grown by doubling up to ``KRYLOV_MAX_ITER + 1`` rows, and
    reused by every later solve and ``solve_interior`` column.
    ``iterations`` is the Krylov iteration count of the latest solve (the
    most over its columns for ``solve_interior``).
    """

    def __init__(self, grid, profile):
        self._use_grid(grid, profile)
        self._preconditioner = StraightTubeOperator(grid, profile.coeffs[0])
        gtt, gta, gaa, _, ct = laplacian_coefficients(profile, self.t, self.angles)
        self._coeffs = tuple(np.broadcast_to(f, (self.n_t, self.m_angles))
                             for f in (gtt, gta, gaa, ct))
        self.iterations = 0
        self._krylov = np.empty((2, 0, self.n_t * self.m_angles))

    def solve(self, rhs, boundary_values):
        """Solve A u = rhs with Dirichlet data on t = 1, as TubeOperator.solve."""
        u, self.iterations = self._gmres(self._lifted(rhs, boundary_values).ravel())
        return _finite(u, self.context).reshape(self.n_t, self.m_angles)

    def solve_interior(self, rhs):
        """Solve A U = rhs column by column with zero Dirichlet data.

        ``rhs`` is an (n_t * M, k) array of flattened interior right-hand
        sides; each column is one Krylov solve.
        """
        out = np.empty(rhs.shape)
        self.iterations = 0
        for col, b in zip(out.T, rhs.T):
            col[:], its = self._gmres(b)
            self.iterations = max(self.iterations, its)
        return out

    def _workspace(self, rows):
        """The Krylov rows (V, Z), grown by doubling to hold at least ``rows``."""
        have = self._krylov.shape[1]
        if have < rows:
            grown = np.empty((2, min(max(2 * have, rows), KRYLOV_MAX_ITER + 1),
                              self._krylov.shape[2]))
            grown[:, :have] = self._krylov
            self._krylov = grown
        return self._krylov

    @one_thread
    def _gmres(self, b):
        """One restart-free GMRES cycle on a flat right-hand side: (x, iterations).

        Arnoldi with classical Gram-Schmidt applied twice, Givens rotations
        on the Hessenberg columns.  It stops once the residual norm, which
        the rotations carry at no cost, reaches ``KRYLOV_RTOL`` of the
        right-hand side's, and raises :class:`NumericalError` with its
        context when ``KRYLOV_MAX_ITER`` steps do not get there.
        """
        beta = float(np.linalg.norm(b))
        if beta == 0.0:
            return np.zeros(b.size), 0
        if not np.isfinite(beta):
            # as a direct solve would; the caller's finiteness check reports it
            return np.full(b.size, np.nan), 0
        shape = (self.n_t, self.m_angles)
        cap = KRYLOV_MAX_ITER
        hess = np.zeros((cap + 1, cap))
        rot = np.zeros((cap, 2))
        g = np.zeros(cap + 1)
        g[0] = beta
        basis, z = self._workspace(1)
        basis[0] = b / beta
        for k in range(cap):
            z[k] = self._preconditioner.solve(basis[k].reshape(shape), 0.0).ravel()
            w = self.apply(z[k].reshape(shape), 0.0).ravel()
            for _ in range(2):
                h = basis[:k + 1] @ w
                w -= h @ basis[:k + 1]
                hess[:k + 1, k] += h
            norm = np.linalg.norm(w)
            col = hess[:k + 2, k]
            col[k + 1] = norm
            for i, (c, s) in enumerate(rot[:k]):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            r = np.hypot(col[k], col[k + 1])
            rot[k] = col[k] / r, col[k + 1] / r
            col[k], col[k + 1] = r, 0.0
            g[k], g[k + 1] = rot[k, 0] * g[k], -rot[k, 1] * g[k]
            if abs(g[k + 1]) <= KRYLOV_RTOL * beta:
                y = _solve_upper(hess[:k + 1, :k + 1], g[:k + 1], self.context)
                return y @ z[:k + 1], k + 1
            basis, z = self._workspace(k + 2)
            basis[k + 1] = w / norm
        raise NumericalError(
            f"GMRES residual {abs(g[cap]) / beta:.3e} above {KRYLOV_RTOL:.0e} "
            f"after {cap} iterations",
            details={"residual": abs(g[cap]) / beta, "cap": KRYLOV_RTOL,
                     "iterations": cap, **self.context})


def _finite(u, context, what="linear solve"):
    """``u`` if finite, else a :class:`NumericalError` whose ``details`` are ``context``."""
    if not np.all(np.isfinite(u)):
        raise NumericalError(f"{what} produced non-finite values", details=dict(context))
    return u


def _solve_upper(a, b, context):
    """x with a x = b for the upper triangle of the C-ordered square ``a``.

    This is the LAPACK call that scipy's ``solve_triangular`` makes for a
    C-ordered matrix: ``a.T`` is the Fortran-ordered lower triangle, solved
    transposed, so x is scipy's bit for bit.  A zero on the diagonal raises
    :class:`NumericalError` whose ``details`` hold ``info`` and ``context``.
    """
    x, info = lapack.dtrtrs(a.T, b, lower=1, trans=1)
    if info != 0:
        # info > 0: a[info - 1, info - 1] is exactly zero; info < 0: a bad argument
        raise NumericalError(f"triangular solve failed (info {info}"
                             + (f": zero diagonal at row {info - 1})" if info > 0 else ")"),
                             details={"info": int(info), **context})
    return x


def _row_norm(grid, gtt, gta, gaa, ct):
    """Largest absolute row sum of the assembled 2-D matrix, never assembled.

    ``grid`` is the :class:`TubeGrid`, its angle coupling is Fourier, and
    the coefficients are (n_t, K) arrays over the angle nodes,
    or K = 1 for coefficients that do not depend on the angle: rotating the
    angle then permutes the entries of a row.  Row (i, k) holds, on the
    angle nodes of each radial row r its stencil reaches (a *slot*), the
    vector over m = (k - column angle) mod M of

        a col2[m] + b col1[m] + c col1[m + s] + d [m = 0] + e [m = -s],

    where col1 and col2 are the circulant columns of D1 and D2 and s the
    shift: a = g^aa on r = i; b and d the cross and radial weights of the
    stencil nodes on row r, c and e those of the reflected ones when the
    shift moves them.  Entries on one column are summed, as the assembly
    sums duplicates, and the boundary columns are left out.  The grid's
    part of this, the slots and their summed weights, is
    ``grid.row_norm_table`` (:class:`_RowNormTable`); the coefficients are
    the operator's.  On a grid of symmetry order j, M is the sector's node
    count and col1, col2 are the sector's columns times j and j^2.

    col1 vanishes at m = 0, so a slot fed by b, d alone sums to
    |b| sum|col1| + |d|, and one fed by c, e alone to |c| sum|col1| + |e|.
    The slot r = i adds a.  col2 is even in m and col1 odd (so it vanishes
    at m = M/2 as well), and pairing m with M - m and
    |x + y| + |x - y| = 2 max(|x|, |y|) give the sum of that slot as

        |a col2[0] + d| + |a col2[M/2]|
            + 2 sum_{0<m<M/2} max(|a| |col2[m]|, |b| |col1[m]|).

    The maximum takes |b| |col1[m]| exactly where the ratio
    |col2[m]| / |col1[m]| lies below |b| / |a| (a = g^aa is never 0).  The
    table holds these ratios sorted, with prefix sums of |col1| and suffix
    sums of |col2| in that order, so the sum is one ``searchsorted`` per
    row.  Only the slots that one stencil reaches both directly and through
    moved reflected nodes, a few eta rows next to the axis, keep the O(M)
    sum of the vector above.
    """
    tab, shift = grid.row_norm_table, grid.axis_shift
    gtt, gta, gaa, ct = np.broadcast_arrays(*(np.asarray(f, dtype=float)
                                              for f in (gtt, gta, gaa, ct)))

    def slot_values(w1, w2):
        # cross and radial coefficient of each (row, slot), over the angles
        return (2.0 * gta[:, None] * w1[..., None],
                gtt[:, None] * w2[..., None] + ct[:, None] * w1[..., None])

    b, d = slot_values(tab.w1, tab.w2)
    c, e = slot_values(tab.moved_w1, tab.moved_w2)
    sums = (np.abs(b) + np.abs(c)) * tab.col1_total + np.abs(d) + np.abs(e)
    col1, col2, half = tab.col1, tab.col2, tab.col1.size // 2
    i, s = tab.sorted_rows, tab.centre[tab.sorted_rows]
    a, bc, dc = gaa[i], b[i, s], d[i, s]
    abs_a, abs_b = np.abs(a), np.abs(bc)
    idx = np.searchsorted(tab.ratios, abs_b / abs_a)
    sums[i, s] = (np.abs(a * col2[0] + dc) + np.abs(a * col2[half])
                  + 2.0 * (abs_b * tab.col1_prefix[idx] + abs_a * tab.col2_suffix[idx]))
    i, s = tab.mixed
    a = gaa[i] * (s == tab.centre[i])[:, None]
    full = (a[..., None] * col2 + b[i, s, :, None] * col1
            + c[i, s, :, None] * np.roll(col1, -shift))
    full[..., 0] += d[i, s]
    full[..., -shift % col1.size] += e[i, s]
    sums[i, s] = np.abs(full).sum(axis=2)
    return float(sums.sum(axis=1).max())


class _RowNormTable:
    """The grid's part of :func:`_row_norm`: stencil slots and ratio tables.

    ``w1``, ``w2`` (``moved_w1``, ``moved_w2``) are the first- and
    second-derivative weights summed per (row, slot) over the stencil nodes
    that reach the slot's radial row directly (through a reflection moved
    by the axis shift).  ``centre`` is the slot of each row's own radial
    row, ``mixed`` the (rows, slots) reached both ways and ``sorted_rows``
    the rows whose centre slot is not mixed.  ``ratios`` are |col2[m]| / |col1[m]| for 0 < m < M/2 in
    ascending order; ``col1_prefix[q]`` sums |col1| over the first q of
    that order and ``col2_suffix[q]`` sums |col2| over the rest.  On a grid
    of symmetry order j, col1 and col2 are the sector's columns times j and
    j^2, as its angle matrices are.
    """

    def __init__(self, st, symmetry):
        nodes = st.nodes
        n_t, width = nodes.shape
        rows = st.rows[nodes]
        moved = st.reflected[nodes] & (st.axis_shift != 0)
        # slot of a node: the first node of its stencil on the same radial
        # row; the boundary row gets the extra slot, which is dropped
        slot = np.argmax(rows[:, :, None] == rows[:, None, :], axis=2)
        slot[rows == n_t] = width
        i = np.broadcast_to(np.arange(n_t)[:, None], slot.shape)
        where = (moved.astype(int), i, slot)
        weights = np.zeros((2, 2, n_t, width + 1))
        np.add.at(weights[:, 0], where, st.w1)
        np.add.at(weights[:, 1], where, st.w2)
        (self.w1, self.w2), (self.moved_w1, self.moved_w2) = weights[..., :width]
        fed = np.zeros((2, n_t, width + 1), dtype=bool)
        fed[where] = True
        mixed = fed[0, :, :width] & fed[1, :, :width]
        self.mixed = np.nonzero(mixed)
        rng = np.arange(n_t)
        self.centre = slot[rng, rng + HALF_WIDTH - st.lows]
        self.sorted_rows = np.flatnonzero(~mixed[rng, self.centre])

        self.col1, self.col2 = _fourier_columns(st.m_angles)
        if symmetry != 1:
            self.col1, self.col2 = symmetry * self.col1, symmetry * symmetry * self.col2
        half = st.m_angles // 2
        abs1, abs2 = np.abs(self.col1[1:half]), np.abs(self.col2[1:half])
        ratios = abs2 / abs1
        order = np.argsort(ratios, kind="stable")
        self.ratios = ratios[order]
        self.col1_prefix = np.concatenate([[0.0], np.cumsum(abs1[order])])
        self.col2_suffix = np.concatenate([np.cumsum(abs2[order][::-1])[::-1], [0.0]])
        self.col1_total = np.abs(self.col1).sum()


def _scaled(r, row_norm, u, rhs):
    scale = row_norm * np.abs(u).max() + np.abs(rhs).max() + 1e-300
    return float(np.max(np.abs(r)) / scale)


def _default_axis_shift(axis, m_angles, nodes):
    # half a turn of the M-node circle, on a grid of ``nodes`` angle nodes
    return (m_angles // 2) % nodes if axis is Axis.ETA else 0
