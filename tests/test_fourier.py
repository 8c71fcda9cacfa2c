import numpy as np
import pytest

from serrin.errors import DomainValidationError
from serrin.fourier import CosineSeries, angle_grid, cosine_coefficients


def test_basis_evaluation():
    s = CosineSeries.basis(3, 0.5)
    a = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(s(a), 0.5 * np.cos(3 * a))
    assert np.allclose(s.derivative(a), -1.5 * np.sin(3 * a))
    assert np.allclose(s.second_derivative(a), -4.5 * np.cos(3 * a))


def test_negative_basis_mode_rejected():
    with pytest.raises(DomainValidationError):
        CosineSeries.basis(-1)


def test_sample_roundtrip():
    coeffs = np.array([0.3, 0.0, -0.2, 0.07, 0.0, 1e-3])
    s = CosineSeries(coeffs)
    back = CosineSeries.from_samples(s.samples(32))
    assert np.allclose(back.coeffs[:6], coeffs, atol=1e-14)
    assert np.all(np.abs(back.coeffs[6:]) < 1e-14)


def test_odd_content_reported():
    a = angle_grid(32)
    values = np.cos(2 * a) + 0.25 * np.sin(3 * a)
    coeffs, residual = cosine_coefficients(values)
    assert abs(coeffs[2] - 1.0) < 1e-14
    assert abs(residual - 0.25) < 1e-12


def test_coefficient_beyond_truncation_is_zero():
    s = CosineSeries([1.0, 0.5, 0.25])
    assert s.coefficient(1) == 0.5
    assert s.coefficient(17) == 0.0
    with pytest.raises(DomainValidationError):
        s.coefficient(-1)


def test_arithmetic():
    s = CosineSeries([1.0, 2.0]) + CosineSeries([0.0, 0.0, 3.0])
    assert s.coeffs.tolist() == [1.0, 2.0, 3.0]
    assert (2.0 * s).coeffs.tolist() == [2.0, 4.0, 6.0]


def test_bad_inputs():
    with pytest.raises(DomainValidationError):
        angle_grid(2)
    with pytest.raises(DomainValidationError):
        cosine_coefficients(np.ones(16), max_mode=8)
