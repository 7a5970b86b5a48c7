import numpy as np
import pytest

from cauchynet.activation import cauchy_activation, cauchy_activation_derivative
from cauchynet.complex_linalg import Rng
from cauchynet.errors import PoleEncountered


def random_offaxis(rng, lo=0.1, hi=10.0):
    mag = 10.0 ** rng.uniform_in(np.log10(lo), np.log10(hi))
    ang = rng.uniform_in(0, 2 * np.pi)
    return mag * complex(np.cos(ang), np.sin(ang))


def test_activation_trivial_values():
    assert cauchy_activation([1 + 0j]) == 1 + 0j
    assert abs(cauchy_activation([2 + 0j, 0.5 + 0j]) - 1) < 1e-15
    assert abs(cauchy_activation([1j]) - (-1j)) < 1e-15


def test_activation_pole_raises():
    with pytest.raises(PoleEncountered):
        cauchy_activation([0j])
    with pytest.raises(PoleEncountered):
        cauchy_activation([complex(-0.5, 0)], epsilon=0.5)


def test_derivative_trivial_values():
    assert cauchy_activation_derivative(1 + 0j) == -1 + 0j
    assert abs(cauchy_activation_derivative(1j) - 1) < 1e-15


def test_derivative_matches_finite_differences():
    z = 2 + 1j
    step = 1e-6
    fd = (cauchy_activation([z + step]) - cauchy_activation([z - step])) / (2 * step)
    an = cauchy_activation_derivative(z)
    assert abs(an - fd) / abs(an) < 1e-7


def test_derivative_equals_negative_square_of_activation():
    rng = Rng(314)
    for _ in range(1000):
        z = random_offaxis(rng)
        d = cauchy_activation_derivative(z)
        s = -cauchy_activation([z]) ** 2
        assert abs(d - s) <= 1e-12 * abs(d)


def test_epsilon_shifts_both_value_and_pole_check():
    # 1/(z + eps) with z = 1, eps = 1 is 0.5
    assert abs(cauchy_activation([1 + 0j], epsilon=1.0) - 0.5) < 1e-15
    d = cauchy_activation_derivative(1 + 0j, epsilon=1.0)
    assert abs(d - (-0.25)) < 1e-15
