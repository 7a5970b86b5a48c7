import re

import numpy as np
import pytest

from cauchynet.complex_linalg import Rng, as_inputs, derive_seed, normal_complex


def test_rng_replays_identical_stream():
    a = Rng(987654321)
    b = Rng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_rng_known_splitmix_values():
    # splitmix64 reference outputs for seed 1234567.
    r = Rng(1234567)
    assert r.next_u64() == 6457827717110365317
    assert r.next_u64() == 3203168211198807973


def test_uniform_in_unit_interval():
    r = Rng(7)
    us = [r.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.02


def test_normal_complex_rejects_bad_sigma():
    with pytest.raises(ValueError):
        normal_complex(Rng(1), 0.0)


def test_normal_complex_statistics():
    rng = Rng(2024)
    n = 100_000
    zs = np.array([normal_complex(rng, 1.0) for _ in range(n)])
    # |sample mean| below 5 sigma/sqrt(n) per component, combined bound 0.02
    assert abs(zs.mean()) < 0.02
    rng = Rng(2025)
    zs = np.array([normal_complex(rng, 0.5) for _ in range(n)])
    assert abs(np.var(zs.real) - 0.25) < 0.01
    assert abs(np.var(zs.imag) - 0.25) < 0.01


def test_derive_seed_decorrelates_tags():
    seeds = {derive_seed(10, t) for t in range(100)}
    assert len(seeds) == 100
    assert derive_seed(10, 3, 7) == derive_seed(10, 3, 7)
    assert derive_seed(10, 3, 7) != derive_seed(10, 7, 3)


@pytest.mark.parametrize("n", [0, 1, 2, 1224])
def test_normal_complex_array_is_bit_equal_to_single_draws(n):
    one, many = Rng(31), Rng(31)
    expected = np.array([normal_complex(one, 0.3) for _ in range(n)], dtype=complex)
    drawn = normal_complex(many, 0.3, n)
    assert drawn.tobytes() == expected.tobytes()
    assert many.state == one.state


def test_uniform_in_array_is_bit_equal_to_single_draws():
    one, many = Rng(77), Rng(77)
    expected = np.array([one.uniform_in(-0.8, 0.8) for _ in range(6000)])
    assert many.uniform_in(-0.8, 0.8, 6000).tobytes() == expected.tobytes()
    assert many.state == one.state


@pytest.mark.parametrize("X", [np.zeros((3, 2, 1)), np.zeros((1, 1, 1, 1)), 2.0])
def test_as_inputs_rejects_other_shapes(X):
    with pytest.raises(ValueError, match=re.escape(
            f"inputs must be (n,) or (n, m), got shape {np.shape(X)}")):
        as_inputs(X)
