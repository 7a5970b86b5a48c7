"""The batch kernels against the (n, h, m) formulation they replace.

The reference functions below evaluate the network the direct way: one
(n, h, m) array of shifted inputs, its reciprocals multiplied with
`np.prod`, and the B gradient as an (n, h, m) array.  The kernels must
reproduce them byte for byte, so a faster kernel never changes a trained
model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet.complex_linalg import Rng
from cauchynet.errors import NonFiniteError, PoleEncountered
from cauchynet.grad import backward, batch_gradient
from cauchynet.model import (PREDICT_BLOCK, CauchyNetModel, forward_batch,
                             init_elliptical, predict, split_parameters)


def reference_forward_batch(model, X):
    shifted = X[:, None, :] + model.B[None, :, :] + model.epsilon
    hidden = np.prod(1.0 / shifted, axis=2)
    return hidden @ model.C, hidden, shifted


def reference_batch_gradient(model, X, y_true, lam):
    o, hidden, shifted = reference_forward_batch(model, X)
    go = 2.0 * (o.real - y_true) + 1j * (2.0 * lam * o.imag)
    dC = (go[:, None] * np.conj(hidden)).mean(axis=0)
    dodB = -model.C[None, :, None] * hidden[:, :, None] / shifted
    dB = (go[:, None, None] * np.conj(dodB)).mean(axis=0)
    return dB, dC


def random_case(h, m, n, seed):
    rng = Rng(seed)
    model = init_elliptical(h, m, rng, 1.2, 0.3, epsilon=1e-8)
    X = np.array([[rng.uniform_in(-1, 1) for _ in range(m)] for _ in range(n)])
    y = np.array([rng.uniform_in(-1, 1) for _ in range(n)])
    return model, X, y


@pytest.mark.parametrize("h", [1, 37, 128])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 32, 64, 65, 1069])
def test_kernels_match_reference_bytes(h, m, n):
    model, X, y = random_case(h, m, n, seed=1000 * h + 10 * m + n)
    o_ref, hidden_ref, _ = reference_forward_batch(model, X)
    dB_ref, dC_ref = reference_batch_gradient(model, X, y, 0.1)

    o, hidden, shifted = forward_batch(model, X)
    assert o.tobytes() == o_ref.tobytes()
    assert hidden.tobytes() == hidden_ref.tobytes()
    assert len(shifted) == m and all(s.shape == (n, h) for s in shifted)
    _, g = batch_gradient(model, X, y, 0.1)
    dB, dC = split_parameters(g, h, m)
    assert dB.tobytes() == dB_ref.tobytes()
    assert dC.tobytes() == dC_ref.tobytes()
    yp, ep = predict(model, X)
    assert yp.tobytes() == o_ref.real.copy().tobytes()
    assert ep.tobytes() == o_ref.imag.copy().tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 200, 1603])
def test_permutation_equals_shuffle_of_range(n):
    for seed in (0, 7, 2 ** 64 - 1):
        a, b = Rng(seed), Rng(seed)
        order = list(range(n))
        a.shuffle(order)
        assert b.permutation(n).tolist() == order
        assert b.state == a.state
        assert b.next_u64() == a.next_u64()


def test_predict_raises_on_a_pole_in_a_later_block():
    model = CauchyNetModel(2, 1, 0.0, np.array([[-0.5 + 0.0j], [0.3j]]),
                           np.array([1.0 + 0j, 2.0 + 0j]))
    X = np.linspace(-1.0, 1.0, 3 * PREDICT_BLOCK)[:, None]
    X[PREDICT_BLOCK + 5] = 0.5            # x + B_00 == 0 in the second block
    with pytest.raises(PoleEncountered):
        predict(model, X)
    X[PREDICT_BLOCK + 5] = 0.25
    y, _ = predict(model, X)
    assert np.all(np.isfinite(y))


def test_forward_overflow_raises_non_finite():
    model = CauchyNetModel(1, 2, 0.0, np.array([[1e-160j, 1e-160j]]),
                           np.array([1e10 + 0j]))
    with pytest.raises(NonFiniteError) as exc:
        forward_batch(model, np.zeros((3, 2)))
    assert not isinstance(exc.value, PoleEncountered)
    with pytest.raises(NonFiniteError):
        predict(model, np.zeros((3, 2)))


def test_forward_batch_rejects_wrong_input_width():
    model, X, _ = random_case(4, 2, 5, seed=3)
    with pytest.raises(ValueError):
        forward_batch(model, X[:, :1])


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 9), m=st.integers(1, 3), n=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32), lam=st.sampled_from([0.0, 0.1, 1.0]))
def test_batch_and_single_sample_paths_agree(h, m, n, seed, lam):
    model, X, y = random_case(h, m, n, seed)
    o, hidden, _ = forward_batch(model, X)
    lv, grads = batch_gradient(model, X, y, lam)
    acc = np.zeros_like(grads)
    for i in range(n):
        o1, hidden1, _ = forward_batch(model, X[i:i + 1])
        np.testing.assert_allclose(o1[0], o[i], rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(hidden1[0], hidden[i], rtol=1e-13, atol=1e-300)
        acc += backward(model, X[i], y[i], lam)
    np.testing.assert_allclose(grads, acc / n, rtol=1e-10, atol=1e-12)
