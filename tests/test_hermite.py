import math

import numpy as np
import pytest

from wavepack import fd
from wavepack.errors import CapacityError, DomainError
from wavepack.hermite import (gaussian_derivative, hermite_all, hermite_eval,
                              shifted_argument_identity,
                              shifted_identity_ratio_constant)

EXPLICIT = [
    lambda z: np.ones_like(z),
    lambda z: 2 * z,
    lambda z: 4 * z**2 - 2,
    lambda z: 8 * z**3 - 12 * z,
    lambda z: 16 * z**4 - 48 * z**2 + 12,
    lambda z: 32 * z**5 - 160 * z**3 + 120 * z,
]


def test_hermite_examples():
    assert hermite_eval(0, 123.4 + 5j) == 1
    assert hermite_eval(3, 2.0) == 40
    assert hermite_eval(2, 1j) == -6


def test_hermite_matches_explicit_polynomials():
    rng = np.random.default_rng(3)
    z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    for n, poly in enumerate(EXPLICIT):
        expected = poly(z)
        got = hermite_eval(n, z)
        rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-12)
        assert np.max(rel) <= 1e-12


def test_hermite_all_consistent():
    z = np.array([0.3 + 0.1j, -1.2, 2.5j])
    hs = hermite_all(8, z)
    for n in range(9):
        assert np.array_equal(hs[n], hermite_eval(n, z))


def test_order_cap():
    with pytest.raises(CapacityError):
        hermite_eval(65, 1.0)
    with pytest.raises(DomainError):
        hermite_eval(-1, 1.0)


class TestGaussianDerivative:
    def test_trivial_orders(self):
        assert abs(gaussian_derivative(0, 1.0, 1.0) - math.exp(-1)) < 1e-15
        assert abs(gaussian_derivative(1, 1.0, 1.0) + 2 * math.exp(-1)) < 1e-14
        assert abs(gaussian_derivative(2, 1.0, 0.0) + 2.0) < 1e-14

    @pytest.mark.parametrize("a", [1.0, 2.0, 1 + 0.3j])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_against_finite_differences(self, m, a):
        rng = np.random.default_rng(m * 7 + int(abs(a) * 11))
        for _ in range(6):
            z = complex(rng.uniform(-2, 2))
            an = gaussian_derivative(m, a, z)
            num = fd.derivative(lambda u: np.exp(-a * u * u), z, m, h0=0.45, levels=6)
            assert abs(num - an) / max(abs(an), 1e-10) <= 1e-6


class TestShiftedArgumentIdentity:
    def test_n0_collapse(self):
        lhs, rhs, ratio = shifted_argument_identity(0, 0.7, 1.3, 0.9)
        expected = 1.0 + math.exp(0.7 * 1.3 / 0.9)
        assert abs(lhs - expected) < 1e-12 * expected
        assert abs(rhs - expected) < 1e-12 * expected
        assert abs(ratio - 1.0) < 1e-13

    def test_symbolic_anchor_n1(self):
        # at (n, a, b, x) = (1, 0, 1, 1): lhs = 2 H_2(1/2) = -2, rhs as printed = -1
        lhs, rhs, ratio = shifted_argument_identity(1, 0.0, 1.0, 1.0)
        assert abs(lhs + 2.0) < 1e-14
        assert abs(rhs + 1.0) < 1e-14
        assert abs(ratio - 2.0) < 1e-13

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_ratio_constant_over_parameters(self, n):
        rng = np.random.default_rng(100 + n)
        ratios = []
        for _ in range(100):
            a = rng.uniform(0.2, 2.5)
            b = rng.uniform(0.4, 2.5)
            x = rng.uniform(0.4, 2.0)
            ratios.append(shifted_argument_identity(n, a, b, x)[2])
        ratios = np.array(ratios)
        spread = np.max(np.abs(ratios - np.mean(ratios))) / abs(np.mean(ratios))
        assert spread <= 1e-9
        assert abs(np.mean(ratios) - shifted_identity_ratio_constant(n)) <= 1e-9 * 2**n

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            shifted_argument_identity(1, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            shifted_argument_identity(1, 1.0, 1.0, -1.0)
