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
"""

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import ConfigError, NumericalError
from .fourier import angle_grid
from .geometry import Axis, laplacian_coefficients

__all__ = ["fd_weights", "radial_grid", "fourier_diff_matrices",
           "periodic_fd_matrices", "TubeOperator"]

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


class TubeOperator:
    """Assembled Laplace-Beltrami operator of one profile on one grid.

    Rows are the interior collocation equations; columns referencing the
    Dirichlet boundary t = 1 are split off into ``boundary_matrix`` so that
    any boundary data can be applied at solve time.  The factorization is
    kept for reuse across right-hand sides.
    """

    def __init__(self, profile, n_t, m_angles, angle_scheme="fourier", axis_shift=None):
        if n_t < 8 or m_angles < 4:
            raise ConfigError(f"grid {n_t}x{m_angles} too coarse to assemble")
        if m_angles % 2:
            raise ConfigError("the angle grid needs an even number of nodes")
        self.profile = profile
        self.n_t = int(n_t)
        self.m_angles = int(m_angles)
        self.angle_scheme = angle_scheme
        self.t = radial_grid(self.n_t)
        self.angles = angle_grid(self.m_angles)
        # the eta-circle collapses on the axis, so eta-profiles reflect with
        # a half-period shift; axis_shift overrides for defect injection
        if axis_shift is None:
            axis_shift = self.m_angles // 2 if profile.axis is Axis.ETA else 0
        self.axis_shift = int(axis_shift) % self.m_angles
        self._assemble()
        self._lu = None
        self._row_norm = None

    # -- assembly -------------------------------------------------------
    def _assemble(self):
        n_t, m, hw = self.n_t, self.m_angles, HALF_WIDTH
        n = n_t * m
        width = 2 * hw + 1
        t, ang = self.t, self.angles
        if self.angle_scheme == "fourier":
            d1a, d2a = fourier_diff_matrices(m)
        elif self.angle_scheme == "fd2":
            d1a, d2a = periodic_fd_matrices(m)
        else:
            raise ConfigError(f"unknown angle scheme {self.angle_scheme!r}")

        gtt, gta, gaa, _, ct = laplacian_coefficients(self.profile, t, ang)
        gtt, gta, gaa, ct = (np.broadcast_to(f, (n_t, m)).copy() for f in (gtt, gta, gaa, ct))
        has_cross = bool(np.any(gta))

        ext = np.concatenate([-t[hw - 1::-1], t, [1.0]])
        n_ext = ext.size
        w1 = np.empty((n_t, width))
        w2 = np.empty((n_t, width))
        lows = np.empty(n_t, dtype=int)
        for i in range(n_t):
            lo = min(max(i, 0), n_ext - width)
            lows[i] = lo
            w = fd_weights(t[i], ext[lo:lo + width], 2)
            w1[i] = w[:, 1]
            w2[i] = w[:, 2]

        # columns of each extended node: a reflected node (radial row < 0)
        # is the mirrored row with the axis shift, and the boundary node
        # (radial row n_t) lands on the m columns past n; 32-bit indices are
        # what the CSC result stores, and they halve the COO index arrays
        karr = np.arange(m, dtype=np.int32)
        radial = np.arange(-hw, n_t + 1, dtype=np.int32)[:, None]
        colmap = np.where(radial < 0, (-1 - radial) * m + (karr + self.axis_shift) % m,
                          radial * m + karr)

        rows, cols, data = [], [], []

        def emit(row_idx, col_idx, values):
            rows.append(row_idx.ravel())
            cols.append(col_idx.ravel())
            data.append(values.ravel())

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

        full = sparse.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n + m)).tocsc()
        # kept for derivatives(), which applies the same stencils to a field
        self._w1, self._w2, self._lows, self._colmap = w1, w2, lows, colmap
        self._d1a, self._d2a = d1a, d2a
        # views of the first n columns, which a full[:, :n] slice would copy
        nnz = full.indptr[n]
        self.matrix = sparse.csc_matrix(
            (full.data[:nnz], full.indices[:nnz], full.indptr[:n + 1]), shape=(n, n))
        self.boundary_matrix = full[:, n:]

        # one-sided derivative stencil at t = 1 matching the interior order
        q = min(2 * hw + 2, n_t + 1)
        nodes = np.concatenate([t[-(q - 1):], [1.0]])
        tw = fd_weights(1.0, nodes, 1)[:, 1]
        self._trace_interior = tw[:-1]
        self._trace_boundary = tw[-1]

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
        n, m = self.n_t * self.m_angles, self.m_angles
        rhs_full = np.broadcast_to(np.asarray(rhs, dtype=float),
                                   (self.n_t, m)).ravel().copy()
        bc = np.broadcast_to(np.asarray(boundary_values, dtype=float), (m,))
        rhs_full -= self.boundary_matrix @ bc
        u = self.lu.solve(rhs_full)
        if not np.all(np.isfinite(u)):
            raise NumericalError("linear solve produced non-finite values")
        return u.reshape(self.n_t, m)

    def scaled_residual(self, u, rhs, boundary_values):
        m = self.m_angles
        rhs_full = np.broadcast_to(np.asarray(rhs, dtype=float),
                                   (self.n_t, m)).ravel()
        bc = np.broadcast_to(np.asarray(boundary_values, dtype=float), (m,))
        r = self.matrix @ u.ravel() + self.boundary_matrix @ bc - rhs_full
        if self._row_norm is None:
            self._row_norm = np.abs(self.matrix).sum(axis=1).max()
        scale = self._row_norm * np.abs(u).max() + np.abs(rhs_full).max() + 1e-300
        return float(np.max(np.abs(r)) / scale)

    def derivatives(self, u, boundary_values):
        """Discrete (u_t, u_tt, u_aa, u_ta) of a field, each (n_t, M).

        The assembly's own stencils, so that
        g^tt u_tt + 2 g^ta u_ta + g^aa u_aa + c_t u_t reproduces
        ``matrix @ u + boundary_matrix @ boundary_values`` row by row.
        """
        m = self.m_angles
        bc = np.broadcast_to(np.asarray(boundary_values, dtype=float), (m,))
        u = np.asarray(u, dtype=float).reshape(self.n_t, m)
        nodes = np.concatenate([u.ravel(), bc])[self._colmap]
        windows = nodes[self._lows[:, None] + np.arange(self._w1.shape[1])]
        u_t = np.einsum("ij,ijk->ik", self._w1, windows)
        u_tt = np.einsum("ij,ijk->ik", self._w2, windows)
        return u_t, u_tt, u @ self._d2a.T, u_t @ self._d1a.T

    def t_derivative_trace(self, u, boundary_values):
        """d u/d t on the boundary circle, via the one-sided stencil."""
        m = self.m_angles
        bc = np.broadcast_to(np.asarray(boundary_values, dtype=float), (m,))
        q = self._trace_interior.size
        return self._trace_interior @ u[-q:, :] + self._trace_boundary * bc
