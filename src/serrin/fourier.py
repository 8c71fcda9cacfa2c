"""Even trigonometric polynomials on the circle.

Boundary profiles, boundary data and Neumann traces in this package all live
in the space of even 2*pi-periodic functions, represented by their cosine
coefficients:

    f(a) = c[0] + sum_{m>=1} c[m] * cos(m*a).

The coefficient vector is authoritative; collocation values are derived from
it on demand.  ``from_samples`` goes the other way through a real FFT and
reports how much of the sampled data was not even (sine content), which the
callers use as a symmetry diagnostic.
"""

import numpy as np

from .errors import DomainValidationError

__all__ = ["CosineSeries", "angle_grid", "cosine_coefficients"]


def angle_grid(m_angles):
    """Uniform angle nodes 2*pi*k/M, k = 0..M-1."""
    if m_angles < 4:
        raise DomainValidationError(f"need at least 4 angle nodes, got {m_angles}")
    return 2.0 * np.pi * np.arange(m_angles) / m_angles


def cosine_coefficients(values, max_mode=None, symmetry=1):
    """Cosine coefficients of sampled periodic data, plus the non-even residual.

    Parameters
    ----------
    values : array of shape (M/j,)
        Samples on the first M/j nodes of ``angle_grid(M)``: the whole grid
        for j = 1, the sector [0, 2*pi/j) of a 2*pi/j-periodic function for
        a symmetry order j > 1.
    max_mode : int, optional
        Truncation order; defaults to M//2 - 1 so the Nyquist mode is dropped.
    symmetry : int, optional
        The symmetry order j.  The sector's frequency k is the frequency kj
        of the circle, and the coefficients off the multiples of j are 0.

    Returns
    -------
    coeffs : array of shape (max_mode+1,)
    residual : float
        Max magnitude of the sine/odd content discarded by the projection.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    full = m * symmetry
    if max_mode is None:
        max_mode = full // 2 - 1
    if max_mode >= full // 2:
        raise DomainValidationError(
            f"max_mode={max_mode} not resolvable with {full} samples")
    freq = np.fft.rfft(values)
    coeffs = np.zeros(max_mode + 1)
    coeffs[0] = freq[0].real / m
    coeffs[symmetry::symmetry] = 2.0 * freq[1:max_mode // symmetry + 1].real / m
    residual = float(np.max(np.abs(freq.imag))) * 2.0 / m
    return coeffs, residual


class CosineSeries:
    """Finite cosine series c0 + sum c_m cos(m a)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise DomainValidationError("coeffs must be a nonempty 1-d vector")

    @classmethod
    def basis(cls, mode, amplitude=1.0):
        """amplitude * cos(mode * a)."""
        if mode < 0:
            raise DomainValidationError(f"mode frequency must be >= 0, got {mode}")
        c = np.zeros(mode + 1)
        c[mode] = amplitude
        return cls(c)

    @classmethod
    def constant(cls, value):
        return cls([value])

    @classmethod
    def from_samples(cls, values, max_mode=None):
        coeffs, _ = cosine_coefficients(values, max_mode)
        return cls(coeffs)

    @property
    def n_modes(self):
        """Highest retained frequency."""
        return self.coeffs.size - 1

    def _harmonics(self, angle):
        angle = np.asarray(angle, dtype=float)
        m = np.arange(self.coeffs.size)
        return np.multiply.outer(angle, m), m

    def __call__(self, angle):
        ma, _ = self._harmonics(angle)
        return np.cos(ma) @ self.coeffs

    def derivative(self, angle):
        ma, m = self._harmonics(angle)
        return -np.sin(ma) @ (m * self.coeffs)

    def second_derivative(self, angle):
        ma, m = self._harmonics(angle)
        return -np.cos(ma) @ (m * m * self.coeffs)

    def samples(self, m_angles):
        return self(angle_grid(m_angles))

    def coefficient(self, mode):
        """Cosine coefficient of frequency ``mode`` (0 if beyond truncation)."""
        if mode < 0:
            raise DomainValidationError("mode must be >= 0")
        if mode >= self.coeffs.size:
            return 0.0
        return float(self.coeffs[mode])

    def __add__(self, other):
        if isinstance(other, CosineSeries):
            n = max(self.coeffs.size, other.coeffs.size)
            c = np.zeros(n)
            c[:self.coeffs.size] += self.coeffs
            c[:other.coeffs.size] += other.coeffs
            return CosineSeries(c)
        return NotImplemented

    def __mul__(self, scalar):
        return CosineSeries(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"CosineSeries({np.array2string(self.coeffs, precision=6)})"
