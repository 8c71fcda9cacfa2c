import math

import numpy as np
import pytest

from serrin.discrete import HALF_WIDTH, RadialStencils, fd_weights, radial_grid

GRIDS = [(8, 4), (64, 64), (256, 48)]


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
