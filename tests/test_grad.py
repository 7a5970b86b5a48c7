import numpy as np
import pytest

from cauchynet.complex_linalg import Rng, normal_complex
from cauchynet.errors import LengthMismatch
from cauchynet.grad import batch_gradient, finite_difference_gradients
from cauchynet.model import CauchyNetModel, forward_batch, split_parameters


def offpole_model(h, m, rng, min_imag=0.2):
    """Random model whose bias rows stay off the real axis.

    |Im B| >= min_imag keeps every shifted denominator at least min_imag
    away from zero for any real input, so finite differences are reliable.
    """
    B = np.empty((h, m), dtype=complex)
    for k in range(h):
        for i in range(m):
            z = normal_complex(rng, 1.0)
            im = np.sign(z.imag) if z.imag != 0 else 1.0
            B[k, i] = complex(z.real, z.imag + im * min_imag)
    C = np.array([normal_complex(rng, 1.0) for _ in range(h)])
    return CauchyNetModel(h, m, 0.0, B, C)


def max_rel_err(va, vb, floor=1e-8):
    return np.max(np.abs(va - vb) / np.maximum(np.maximum(np.abs(va), np.abs(vb)), floor))


def test_backward_hand_checked_case():
    # h=m=1, B=0, C=1, x=1, y_true=0, lam=0:
    # o = 1/(1+b); d(Re o)/d(Re b) at b=0 is -1, times dL/dy = 2 gives -2.
    model = CauchyNetModel(1, 1, 0.0, np.zeros((1, 1), complex), np.ones(1, complex))
    dB, _ = split_parameters(batch_gradient(model, [[1.0]], [0.0], 0.0)[1], 1, 1)
    assert dB[0, 0].real == pytest.approx(-2.0)
    assert dB[0, 0].imag == pytest.approx(0.0)


def test_backward_zero_at_stationary_point():
    model = CauchyNetModel(1, 1, 0.0, np.zeros((1, 1), complex), np.ones(1, complex))
    dB, dC = split_parameters(batch_gradient(model, [[1.0]], [1.0], 0.5)[1], 1, 1)  # y = 1, e = 0
    assert np.all(dB == 0) and np.all(dC == 0)


def test_backward_imag_partial_matches_fd():
    model = CauchyNetModel(1, 1, 0.0, np.zeros((1, 1), complex), np.ones(1, complex))
    dB, _ = split_parameters(batch_gradient(model, [[1.0]], [1.0], 0.5)[1], 1, 1)
    fd, _ = split_parameters(finite_difference_gradients(model, [1.0], 1.0, 0.5, step=1e-6), 1, 1)
    assert abs(dB[0, 0].imag - fd[0, 0].imag) <= 1e-5 * max(abs(fd[0, 0].imag), 1e-8)


def test_gradient_check_sweep():
    """One-row batch gradient vs central differences on 100 random instances."""
    rng = Rng(100)
    hs, ms, lams = (1, 2, 8), (1, 2, 3), (0.0, 0.1, 1.0)
    for i in range(100):
        h, m, lam = hs[i % 3], ms[(i // 3) % 3], lams[(i // 9) % 3]
        model = offpole_model(h, m, rng)
        x = np.array([rng.uniform_in(-1, 1) for _ in range(m)])
        y_true = rng.uniform_in(-2, 2)
        an = batch_gradient(model, np.reshape(x, (1, -1)), [y_true], lam)[1]
        fd = finite_difference_gradients(model, x, y_true, lam, step=1e-6)
        assert max_rel_err(an, fd) < 1e-5


def test_backward_linear_in_lambda():
    rng = Rng(55)
    for _ in range(20):
        model = offpole_model(2, 2, rng)
        x = np.array([rng.uniform_in(-1, 1), rng.uniform_in(-1, 1)])
        y_true = rng.uniform_in(-1, 1)
        X = np.reshape(x, (1, -1))
        g0 = batch_gradient(model, X, [y_true], 0.0)[1]
        g1 = batch_gradient(model, X, [y_true], 1.0)[1]
        a = 0.37
        ga = batch_gradient(model, X, [y_true], a)[1]
        np.testing.assert_allclose(ga, g0 + a * (g1 - g0), atol=1e-10)


def test_batch_gradient_is_mean_of_per_sample():
    rng = Rng(606)
    model = offpole_model(3, 2, rng)
    X = np.array([[0.2, -0.4], [0.9, 0.1], [-0.7, 0.5]])
    yt = np.array([0.5, -0.2, 1.0])
    lam = 0.3
    lv, gb = batch_gradient(model, X, yt, lam)
    acc = np.zeros_like(gb)
    tot = 0.0
    for i in range(3):
        o, _, _ = forward_batch(model, X[i:i + 1])
        acc += batch_gradient(model, X[i:i + 1], yt[i:i + 1], lam)[1]
        tot += (o[0].real - yt[i]) ** 2 + lam * o[0].imag ** 2
    np.testing.assert_allclose(gb, acc / 3, rtol=1e-12)
    assert lv.total == pytest.approx(tot / 3)


def test_batch_gradient_rejects_an_empty_batch():
    model = offpole_model(2, 1, Rng(5))
    with pytest.raises(LengthMismatch):
        batch_gradient(model, np.zeros((0, 1)), [], 0.1)


def test_fd_oracle_rejects_zero_step():
    model = offpole_model(1, 1, Rng(1))
    with pytest.raises(ValueError):
        finite_difference_gradients(model, [0.0], 0.0, 0.0, step=0.0)
