import math

import numpy as np
import pytest

from cauchynet.complex_linalg import Rng, normal_complex
from cauchynet.baseline import (MlpModel, init_mlp, load_mlp_checkpoint,
                                mlp_batch_gradient, mlp_parameter_count,
                                mlp_predict, save_mlp_checkpoint,
                                split_mlp_parameters)
from cauchynet.data import ScalerState
from cauchynet.errors import NonFiniteError, SchemaError


def predict_one(model, x):
    """The prediction of a one-row batch."""
    y, _ = mlp_predict(model, np.asarray(x, dtype=float)[None, :])
    return y[0]


def test_forward_zero_weights():
    model = MlpModel(np.zeros((4, 2)), np.zeros(4), np.zeros(4), 0.0)
    assert predict_one(model, [1.0, -2.0]) == 0.0


def test_forward_relu_clamps():
    model = MlpModel(np.array([[1.0]]), np.zeros(1), np.array([1.0]), 0.0)
    assert predict_one(model, [-3.0]) == 0.0
    assert predict_one(model, [2.0]) == 2.0


def test_parameter_count():
    model = init_mlp(128, 1, Rng(0))
    assert mlp_parameter_count(model) == 128 * 3 + 1
    assert mlp_parameter_count(model) == len(model.params)


@pytest.mark.parametrize("h,m", [(7, 2), (33, 1)])   # h(m + 1) = 21 and 66
@pytest.mark.parametrize("seed", [1, 12345])
def test_init_mlp_draws_scalar_box_muller_pairs(h, m, seed):
    # Reference: one scalar complex draw per pair of weights, real part
    # first; W1 row-major scaled by sqrt(2/m), then W2 scaled by sqrt(2/h).
    rng = Rng(seed)
    z = []
    while len(z) < h * (m + 1):
        d = normal_complex(rng, 1.0)
        z += [d.real, d.imag]
    W1 = [z[j] * math.sqrt(2.0 / m) for j in range(h * m)]
    W2 = [z[h * m + k] * math.sqrt(2.0 / h) for k in range(h)]
    expected = np.array(W1 + [0.0] * h + W2 + [0.0])
    assert init_mlp(h, m, Rng(seed)).params.tobytes() == expected.tobytes()


def test_backward_zero_residual():
    model = init_mlp(5, 2, Rng(3))
    x = np.array([0.4, -0.7])
    _, g = mlp_batch_gradient(model, x[None, :], [predict_one(model, x)])
    assert np.all(g == 0)


def test_backward_inactive_unit_gets_zero_gradient():
    model = MlpModel(np.array([[1.0], [1.0]]), np.array([0.0, -10.0]),
                     np.array([1.0, 1.0]), 0.0)
    _, g = mlp_batch_gradient(model, [[2.0]], [0.0])
    dW1, db1, _ = split_mlp_parameters(g, model.h, model.m)
    assert dW1[1, 0] == 0.0 and db1[1] == 0.0
    assert dW1[0, 0] != 0.0


def test_backward_matches_finite_differences():
    rng = Rng(77)
    for _ in range(100):
        h = 1 + rng.next_u64() % 6
        m = 1 + rng.next_u64() % 3
        model = init_mlp(h, m, rng)
        b = normal_complex(rng, 0.5, h + 1).real
        model.b1[:] = b[:h]
        model.b2 = b[h]
        x = np.array([rng.uniform_in(-1, 1) for _ in range(m)])
        y_true = rng.uniform_in(-2, 2)
        _, g = mlp_batch_gradient(model, x[None, :], np.array([y_true]))
        p0 = model.params.copy()
        step = 1e-6
        fd = np.empty_like(p0)
        for j in range(len(p0)):
            for sgn, slot in ((1, 0), (-1, 1)):
                p = p0.copy()
                p[j] += sgn * step
                model.params[:] = p
                yv, _ = mlp_predict(model, x[None, :])
                val = (yv[0] - y_true) ** 2
                if slot == 0:
                    up = val
                else:
                    fd[j] = (up - val) / (2 * step)
        model.params[:] = p0
        rel = np.abs(g - fd) / np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-4)
        assert rel.max() < 1e-5


def test_forward_piecewise_linear():
    # second differences vanish along a segment with a fixed activation sign
    model = init_mlp(8, 1, Rng(5))
    xs = np.linspace(2.0, 2.1, 9)   # narrow segment, pattern very likely fixed
    pre = xs[:, None] * model.W1[:, 0][None, :] + model.b1[None, :]
    assert np.all(np.sign(pre[0]) == np.sign(pre))
    ys, _ = mlp_predict(model, xs)
    second = ys[:-2] - 2 * ys[1:-1] + ys[2:]
    assert np.abs(second).max() < 1e-9


def test_batch_gradient_scales_like_mean():
    model = init_mlp(4, 1, Rng(11))
    X = np.array([[0.1], [0.5], [-0.3]])
    y = np.array([1.0, 0.0, 2.0])
    _, g_all = mlp_batch_gradient(model, X, y)
    gs = [mlp_batch_gradient(model, X[i:i + 1], y[i:i + 1])[1] for i in range(3)]
    np.testing.assert_allclose(g_all, np.mean(gs, axis=0), rtol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    model = init_mlp(6, 2, Rng(8))
    path = tmp_path / "mlp.json"
    save_mlp_checkpoint(model, ScalerState(0, 1, 0, 1), path, seed=10)
    loaded, scaler = load_mlp_checkpoint(path)
    np.testing.assert_array_equal(loaded.W1, model.W1)
    np.testing.assert_array_equal(loaded.W2, model.W2)
    np.testing.assert_array_equal(loaded.b1, model.b1)
    assert loaded.b2 == model.b2
    assert scaler.max == 1


def test_checkpoint_wrong_type_rejected(tmp_path):
    import json
    path = tmp_path / "mlp.json"
    path.write_text(json.dumps({"version": 1, "model_type": "other"}))
    with pytest.raises(SchemaError):
        load_mlp_checkpoint(path)


def test_overflow_raises_non_finite_without_a_warning():
    model = MlpModel(np.full((3, 1), 1e200), np.zeros(3), np.full(3, 1e200), 0.0)
    X = np.array([[1.0], [2.0]])
    with pytest.raises(NonFiniteError):
        mlp_predict(model, X)
    with pytest.raises(NonFiniteError):
        mlp_batch_gradient(model, X, [0.0, 0.0])
