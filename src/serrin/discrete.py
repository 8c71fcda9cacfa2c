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

Angle direction: Fourier collocation by default (exact frequencies for every
resolved mode, which the eigenfunction identities require), with a plain
second-order periodic stencil available as the low-tech reference coupling.

Straight tubes split by angle mode.  A constant profile gives coefficients
that depend on t only, and both the Fourier coupling and the reflection are
circulant in the angle, so the Fourier modes k = 0..M/2 decouple (the fast
Poisson solvers of Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970).
Mode k sees D2 as the k-th FFT coefficient of its column (exact, Nyquist
mode included) and the reflected nodes with the factor 1 for xi and
(-1)^k for eta, the half-period shift.  :class:`StraightTubeOperator` thus
solves one banded n_t x n_t radial system per mode between an rfft and an
irfft, with the stencils of :class:`RadialStencils` that the 2-D
:class:`TubeOperator` assembles from.  The 2-D assembly stays the general
path and the oracle: it is what measures cross-mode leakage.
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ConfigError, NumericalError
from .fourier import angle_grid
from .geometry import Axis, BoundaryProfile, laplacian_coefficient_values, laplacian_coefficients

__all__ = ["fd_weights", "radial_grid", "fourier_diff_matrices",
           "periodic_fd_matrices", "RadialStencils", "TubeOperator", "StraightTubeOperator"]

HALF_WIDTH = 3
GRADING = 3.0


def fd_weights(x0, x, max_order):
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion).

    Returns an array of shape (len(x), max_order+1); column m holds the
    weights of the m-th derivative at ``x0``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
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
    return _circulant(col1), _circulant(col2)


def periodic_fd_matrices(m_angles):
    """Second-order periodic stencils, the reference angle coupling."""
    m = m_angles
    h = 2.0 * np.pi / m
    col1 = np.zeros(m)
    col1[1] = -0.5 / h
    col1[-1] = 0.5 / h
    col2 = np.zeros(m)
    col2[0] = -2.0 / h ** 2
    col2[1] = col2[-1] = 1.0 / h ** 2
    return _circulant(col1), _circulant(col2)


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
    with first- and second-derivative weights ``w1[i]`` and ``w2[i]``.
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
        ext = np.concatenate([-t[hw - 1::-1], t, [1.0]])
        n_ext = ext.size
        self.w1 = np.empty((n_t, width))
        self.w2 = np.empty((n_t, width))
        self.lows = np.empty(n_t, dtype=int)
        for i in range(n_t):
            lo = min(max(i, 0), n_ext - width)
            self.lows[i] = lo
            w = fd_weights(t[i], ext[lo:lo + width], 2)
            self.w1[i] = w[:, 1]
            self.w2[i] = w[:, 2]

        # 32-bit indices are what a CSC matrix stores, and they halve the
        # COO index arrays of the 2-D assembly
        karr = np.arange(m, dtype=np.int32)
        radial = np.arange(-hw, n_t + 1, dtype=np.int32)
        self.reflected = radial < 0
        self.rows = np.where(self.reflected, -1 - radial, radial)
        self.colmap = np.where(self.reflected[:, None],
                               self.rows[:, None] * m + (karr + axis_shift) % m,
                               self.rows[:, None] * m + karr)

        # one-sided derivative stencil at t = 1 matching the interior order
        q = min(2 * hw + 2, n_t + 1)
        nodes = np.concatenate([t[-(q - 1):], [1.0]])
        tw = fd_weights(1.0, nodes, 1)[:, 1]
        self.trace_interior = tw[:-1]
        self.trace_boundary = tw[-1]

    @property
    def nodes(self):
        """(n_t, 2*HALF_WIDTH + 1) extended-node indices of each row's stencil."""
        return self.lows[:, None] + np.arange(self.w1.shape[1])

    def radial_derivatives(self, u, boundary_values):
        """(u_t, u_tt) of an (n_t, M) field with Dirichlet samples on t = 1."""
        values = np.concatenate([u.ravel(), boundary_values])[self.colmap]
        windows = values[self.nodes]
        return (np.einsum("ij,ijk->ik", self.w1, windows),
                np.einsum("ij,ijk->ik", self.w2, windows))

    def t_derivative_trace(self, u, boundary_values):
        q = self.trace_interior.size
        return self.trace_interior @ u[-q:, :] + self.trace_boundary * boundary_values


def _as_grid(values, shape):
    """Scalar or array data broadcast to a grid shape, as floats."""
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


class TubeOperator:
    """Assembled Laplace-Beltrami operator of one profile on one grid.

    Rows are the interior collocation equations; columns referencing the
    Dirichlet boundary t = 1 are split off into ``boundary_matrix`` so that
    any boundary data can be applied at solve time.  The factorization is
    kept for reuse across right-hand sides.
    """

    def __init__(self, profile, n_t, m_angles, angle_scheme="fourier", axis_shift=None):
        _check_grid(n_t, m_angles)
        self.profile = profile
        self.n_t = int(n_t)
        self.m_angles = int(m_angles)
        self.angle_scheme = angle_scheme
        self.t = radial_grid(self.n_t)
        self.angles = angle_grid(self.m_angles)
        # the eta-circle collapses on the axis, so eta-profiles reflect with
        # a half-period shift; axis_shift overrides for defect injection
        if axis_shift is None:
            axis_shift = _default_axis_shift(profile.axis, self.m_angles)
        self.axis_shift = int(axis_shift) % self.m_angles
        self._assemble()
        self._lu = None
        self._row_norm = None

    # -- assembly -------------------------------------------------------
    def _assemble(self):
        n_t, m = self.n_t, self.m_angles
        n = n_t * m
        if self.angle_scheme == "fourier":
            d1a, d2a = fourier_diff_matrices(m)
        elif self.angle_scheme == "fd2":
            d1a, d2a = periodic_fd_matrices(m)
        else:
            raise ConfigError(f"unknown angle scheme {self.angle_scheme!r}")

        gtt, gta, gaa, _, ct = laplacian_coefficients(self.profile, self.t, self.angles)
        gtt, gta, gaa, ct = (np.broadcast_to(f, (n_t, m)).copy() for f in (gtt, gta, gaa, ct))
        has_cross = bool(np.any(gta))

        st = self._stencils = RadialStencils(self.t, m, self.axis_shift)
        w1, w2, lows, colmap = st.w1, st.w2, st.lows, st.colmap
        karr = np.arange(m, dtype=np.int32)
        # the entry count is known, so the COO arrays are filled in place:
        # no list of pieces and no joined copy of it
        width = w1.shape[1]
        total = n_t * (m * m + width * m * (1 + m * has_cross))
        rows = np.empty(total, dtype=np.int32)
        cols = np.empty(total, dtype=np.int32)
        data = np.empty(total)
        end = 0

        def emit(row_idx, col_idx, values):
            nonlocal end
            start, end = end, end + values.size
            rows[start:end] = row_idx.ravel()
            cols[start:end] = col_idx.ravel()
            data[start:end] = values.ravel()

        for i in range(n_t):
            row_k = i * m + karr
            block_rows = np.repeat(row_k, m)
            emit(block_rows, np.tile(row_k, m), gaa[i][:, None] * d2a)
            for j in range(width):
                col_k = colmap[lows[i] + j]
                emit(row_k, col_k, gtt[i] * w2[i, j] + ct[i] * w1[i, j])
                if has_cross:
                    emit(block_rows, np.tile(col_k, m),
                         (2.0 * gta[i] * w1[i, j])[:, None] * d1a)

        full = sparse.coo_matrix((data, (rows, cols)), shape=(n, n + m)).tocsc()
        del data, rows, cols        # before the boundary split below copies
        # kept for derivatives(), which applies the same stencils to a field
        self._d1a, self._d2a = d1a, d2a
        # views of the first n columns, which a full[:, :n] slice would copy
        nnz = full.indptr[n]
        self.matrix = sparse.csc_matrix(
            (full.data[:nnz], full.indices[:nnz], full.indptr[:n + 1]), shape=(n, n))
        self.boundary_matrix = full[:, n:]

    # -- solving ---------------------------------------------------------
    @property
    def lu(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as exc:
                raise NumericalError(f"sparse factorization failed: {exc}") from exc
        return self._lu

    def solve(self, rhs, boundary_values):
        """Solve A u = rhs with Dirichlet data on t = 1.

        ``rhs`` is the interior right-hand side (scalar or (n_t, M) array);
        ``boundary_values`` the Dirichlet samples on the angle grid (scalar
        or (M,) array).  Returns the interior field as an (n_t, M) array.
        """
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        u = self.lu.solve(rhs.ravel() - self.boundary_matrix @ bc)
        if not np.all(np.isfinite(u)):
            raise NumericalError("linear solve produced non-finite values")
        return u.reshape(self.n_t, self.m_angles)

    def scaled_residual(self, u, rhs, boundary_values):
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        r = self.matrix @ u.ravel() + self.boundary_matrix @ bc - rhs.ravel()
        if self._row_norm is None:
            self._row_norm = np.abs(self.matrix).sum(axis=1).max()
        return _scaled(r, self._row_norm, u, rhs)

    def derivatives(self, u, boundary_values):
        """Discrete (u_t, u_tt, u_aa, u_ta) of a field, each (n_t, M).

        The assembly's own stencils, so that
        g^tt u_tt + 2 g^ta u_ta + g^aa u_aa + c_t u_t reproduces
        ``matrix @ u + boundary_matrix @ boundary_values`` row by row.
        """
        bc = _as_grid(boundary_values, (self.m_angles,))
        u = np.asarray(u, dtype=float).reshape(self.n_t, self.m_angles)
        u_t, u_tt = self._stencils.radial_derivatives(u, bc)
        return u_t, u_tt, u @ self._d2a.T, u_t @ self._d1a.T

    def t_derivative_trace(self, u, boundary_values):
        """d u/d t on the boundary circle, via the one-sided stencil."""
        bc = _as_grid(boundary_values, (self.m_angles,))
        return self._stencils.t_derivative_trace(u, bc)


class StraightTubeOperator:
    """Tube Laplacian of the straight tube of radius ``lam``, mode by mode.

    Same interface as :class:`TubeOperator` for ``solve``,
    ``scaled_residual`` and ``t_derivative_trace``, with the Fourier angle
    scheme and the default axis shift.  The coefficients depend on t only,
    so the operator is diagonal in the angle modes k = 0..M/2: each is one
    banded n_t x n_t radial system, built from the same stencils and
    factorized when the operator is built.  ``row_norm`` is the largest
    absolute row sum of the 2-D matrix, which ``scaled_residual`` uses.
    """

    angle_scheme = "fourier"

    def __init__(self, axis, lam, n_t, m_angles):
        _check_grid(n_t, m_angles)
        self.profile = BoundaryProfile.constant(axis, lam)
        self.n_t = n_t = int(n_t)
        self.m_angles = m = int(m_angles)
        self.t = radial_grid(n_t)
        self.angles = angle_grid(m)
        shift = _default_axis_shift(self.profile.axis, m)
        st = self._stencils = RadialStencils(self.t, m, shift)
        gtt, _, gaa, _, ct = laplacian_coefficient_values(
            self.profile.axis, self.t, float(lam), 0.0, 0.0)
        self._gtt, self._gaa, self._ct = gtt, gaa, ct
        _, self._d2a = fourier_diff_matrices(m)

        coef = gtt[:, None] * st.w2 + ct[:, None] * st.w1
        nodes = st.nodes
        self.row_norm = _straight_row_norm(coef, st.colmap[nodes, 0],
                                           gaa[:, None] * self._d2a[0], n_t, m)

        # radial system of mode k: the interior stencil entries, the
        # reflected ones times 1 (xi) or (-1)^k (eta: the half-period shift
        # of u(-t, a) = u(t, a + pi)), and g^aa times the angular eigenvalue
        row = np.broadcast_to(np.arange(n_t)[:, None], nodes.shape)
        col = st.rows[nodes]
        interior = col < n_t
        self._boundary_coef = np.where(interior, 0.0, coef).sum(axis=1)
        self._kl = kl = int(np.max((row - col)[interior]))
        self._ku = ku = int(np.max((col - row)[interior]))
        band = (kl + ku + row - col)[interior], col[interior]
        reflected = st.reflected[nodes][interior]
        direct = np.zeros((2 * kl + ku + 1, n_t))
        mirrored = np.zeros_like(direct)
        np.add.at(direct, band, np.where(reflected, 0.0, coef[interior]))
        np.add.at(mirrored, band, np.where(reflected, coef[interior], 0.0))
        k = np.arange(m // 2 + 1)
        sign = (-1.0) ** k if shift else np.ones(k.size)
        eigen = np.fft.rfft(self._d2a[:, 0]).real
        # one allocation holds every mode's band, each slice in the column
        # order LAPACK works on, so the factors need no copies
        self._bands = np.empty((k.size, n_t, direct.shape[0])).transpose(0, 2, 1)
        self._bands[...] = direct + sign[:, None, None] * mirrored
        self._bands[:, kl + ku] += eigen[:, None] * gaa
        self._piv = np.empty((k.size, n_t), dtype=np.int32)
        for band, piv in zip(self._bands, self._piv):
            band[...], piv[:], info = lapack.dgbtrf(band, kl, ku, overwrite_ab=1)
            if info != 0:
                raise NumericalError(f"radial block factorization failed (info {info})")

    def solve(self, rhs, boundary_values):
        """Solve A u = rhs with Dirichlet data on t = 1, as TubeOperator.solve."""
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        b = np.fft.rfft(rhs, axis=1) - self._boundary_coef[:, None] * np.fft.rfft(bc)
        # per mode, the real and imaginary parts are two right-hand sides
        x = np.empty((b.shape[1], 2, self.n_t))
        x[:, 0], x[:, 1] = b.real.T, b.imag.T
        for band, piv, col in zip(self._bands, self._piv, x):
            col.T[...], _ = lapack.dgbtrs(band, self._kl, self._ku, col.T, piv, overwrite_b=1)
        u = np.fft.irfft((x[:, 0] + 1j * x[:, 1]).T, n=self.m_angles, axis=1)
        if not np.all(np.isfinite(u)):
            raise NumericalError("linear solve produced non-finite values")
        return u

    def scaled_residual(self, u, rhs, boundary_values):
        """As TubeOperator.scaled_residual, with the operator applied node by node.

        The residual g^tt u_tt + g^aa u_aa + c_t u_t - rhs is formed on the
        grid, not per mode, so a wrong mode bookkeeping in ``solve`` shows.
        """
        rhs = _as_grid(rhs, (self.n_t, self.m_angles))
        bc = _as_grid(boundary_values, (self.m_angles,))
        u_t, u_tt = self._stencils.radial_derivatives(u, bc)
        r = (self._gtt[:, None] * u_tt + self._gaa[:, None] * (u @ self._d2a.T)
             + self._ct[:, None] * u_t - rhs)
        return _scaled(r, self.row_norm, u, rhs)

    def t_derivative_trace(self, u, boundary_values):
        """d u/d t on the boundary circle, via the one-sided stencil."""
        bc = _as_grid(boundary_values, (self.m_angles,))
        return self._stencils.t_derivative_trace(u, bc)


def _straight_row_norm(coef, cols, angle_row, n_t, m):
    """Largest absolute row sum of the 2-D straight-tube matrix.

    Rotating the angle permutes the entries of a row, so the angle-0 rows
    (i, 0) suffice: g^aa times the D2 row over the angle nodes of row i,
    plus the radial stencil on its columns, duplicates summed as the 2-D
    assembly sums them; the boundary columns are left out, as they are
    of ``TubeOperator.matrix``.
    """
    i = np.arange(n_t)
    rows = np.concatenate([np.repeat(i, m), np.repeat(i, coef.shape[1])])
    cols = np.concatenate([(i[:, None] * m + np.arange(m)).ravel(), cols.ravel()])
    vals = np.concatenate([angle_row.ravel(), coef.ravel()])
    inside = cols < n_t * m
    row0 = sparse.coo_matrix((vals[inside], (rows[inside], cols[inside])),
                             shape=(n_t, n_t * m)).tocsr()
    return float(abs(row0).sum(axis=1).max())


def _scaled(r, row_norm, u, rhs):
    scale = row_norm * np.abs(u).max() + np.abs(rhs).max() + 1e-300
    return float(np.max(np.abs(r)) / scale)


def _default_axis_shift(axis, m_angles):
    return m_angles // 2 if axis is Axis.ETA else 0
