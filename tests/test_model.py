import math
import re

import numpy as np
import pytest

from cauchynet.complex_linalg import Rng, normal_complex
from cauchynet.data import ScalerState
from cauchynet.errors import SchemaError
from cauchynet.model import (CauchyNetModel, forward_batch, init_elliptical,
                             load_checkpoint, parameter_count, predict, save_checkpoint)


def small_model(h=1, m=1, B=None, C=None, eps=0.0):
    B = np.zeros((h, m), dtype=complex) if B is None else np.asarray(B, dtype=complex)
    C = np.ones(h, dtype=complex) if C is None else np.asarray(C, dtype=complex)
    return CauchyNetModel(h, m, eps, B, C)


def forward_one(model, x) -> complex:
    """The output o = y + i e of a one-row batch."""
    o, _, _ = forward_batch(model, np.asarray(x, dtype=float)[None, :])
    return complex(o[0])


def test_forward_single_reciprocal():
    out = forward_one(small_model(), [2.0])
    assert out.real == pytest.approx(0.5)
    assert out.imag == 0.0


def test_forward_conjugate_pair_cancels_imaginary():
    model = small_model(h=2, B=[[1j], [-1j]], C=[0.5, 0.5])
    out = forward_one(model, [1.0])
    assert out.real == pytest.approx(0.5)
    assert out.imag == pytest.approx(0.0, abs=1e-15)


def test_forward_two_inputs_product():
    model = small_model(m=2, B=[[0, 0]])
    out = forward_one(model, [2.0, 4.0])
    assert out.real == pytest.approx(0.125)
    assert out.imag == 0.0


def test_forward_batch_matches_single():
    model = init_elliptical(6, 2, Rng(31))
    X = np.array([[0.1, -0.3], [0.7, 0.2], [-0.5, 0.9]])
    o, hidden, _ = forward_batch(model, X)
    for i in range(len(X)):
        o1, hidden1, _ = forward_batch(model, X[i:i + 1])
        assert abs(o[i] - o1[0]) < 1e-14
        np.testing.assert_allclose(hidden[i], hidden1[0], rtol=1e-14)


def test_forward_deterministic():
    model = init_elliptical(8, 1, Rng(5))
    assert forward_one(model, [0.25]) == forward_one(model, [0.25])


def test_conjugate_symmetric_model_has_zero_e_everywhere():
    rng = Rng(77)
    h = 6
    z = normal_complex(rng, 1.0, h // 2)
    B_half = (z.real + 1j * (0.3 + np.abs(z.imag)))[:, None]
    C_half = normal_complex(rng, 1.0, h // 2)
    B = np.vstack([B_half, B_half.conj()])
    C = np.concatenate([C_half, C_half.conj()])
    model = CauchyNetModel(h, 1, 0.0, B, C)
    for x in np.linspace(-2, 2, 17):
        assert abs(forward_one(model, [x]).imag) < 1e-13


def test_parameter_count_values():
    assert parameter_count(small_model(h=128, m=1, B=np.zeros((128, 1)),
                                       C=np.ones(128))) == (256, 512)
    assert parameter_count(small_model()) == (2, 4)
    assert parameter_count(small_model(h=128, m=10, B=np.zeros((128, 10)),
                                       C=np.ones(128))) == (1408, 2816)


def test_parameter_count_matches_stored_scalars():
    model = init_elliptical(7, 3, Rng(1))
    cplx, real = parameter_count(model)
    assert cplx == model.B.size + model.C.size
    assert real == len(model.params)


def test_elliptical_init_places_poles_on_ellipse():
    model = init_elliptical(16, 1, Rng(3), semi_major=6.0, semi_minor=2.0,
                            epsilon=0.0)
    poles = -model.B[:, 0]
    on = (poles.real / 6.0) ** 2 + (poles.imag / 2.0) ** 2
    np.testing.assert_allclose(on, 1.0, atol=1e-12)


def test_parameter_vector_round_trip():
    model = init_elliptical(5, 2, Rng(8))
    v = model.params.copy()
    clone = init_elliptical(5, 2, Rng(99))
    clone.params[:] = v
    np.testing.assert_array_equal(clone.B, model.B)
    np.testing.assert_array_equal(clone.C, model.C)


@pytest.mark.parametrize("eps", [-1e-8, float("nan")])
def test_model_rejects_negative_or_nan_epsilon(eps):
    with pytest.raises(ValueError, match="epsilon"):
        small_model(eps=eps)


def test_predict_reconstructs_o():
    model = init_elliptical(4, 1, Rng(21))
    y, e = predict(model, np.linspace(-1, 1, 9))
    o, _, _ = forward_batch(model, np.linspace(-1, 1, 9))
    np.testing.assert_array_equal(y + 1j * e, o)


def test_predict_rejects_three_dimensional_inputs():
    with pytest.raises(ValueError, match=re.escape(
            "inputs must be (n,) or (n, m), got shape (3, 2, 1)")):
        predict(small_model(m=2), np.zeros((3, 2, 1)))


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_elliptical(12, 2, Rng(10))
    scaler = ScalerState(-3.25, 7.5, 0.0, 1.0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, scaler, path, seed=10)
    loaded, sc = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.B, model.B)
    np.testing.assert_array_equal(loaded.C, model.C)
    assert loaded.h == model.h and loaded.m == model.m
    assert loaded.epsilon == model.epsilon
    assert (sc.min, sc.max, sc.range_lo, sc.range_hi) == (-3.25, 7.5, 0.0, 1.0)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    import json
    model = init_elliptical(3, 1, Rng(1))
    scaler = ScalerState(0, 1, 0, 1)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, scaler, path)
    doc = json.loads(path.read_text())
    doc["h"] = 5
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_checkpoint(path)


def test_checkpoint_missing_epsilon_rejected(tmp_path):
    import json
    model = init_elliptical(3, 1, Rng(1))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, ScalerState(0, 1, 0, 1), path)
    doc = json.loads(path.read_text())
    del doc["epsilon"]
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_checkpoint(path)


def test_checkpoint_bad_version_rejected(tmp_path):
    import json
    model = init_elliptical(3, 1, Rng(1))
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, ScalerState(0, 1, 0, 1), path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_checkpoint(path)


@pytest.mark.parametrize("init", [init_elliptical])
@pytest.mark.parametrize("h,m", [(1, 1), (128, 2), (1224, 1)])
def test_init_draws_equal_the_scalar_loop(init, h, m):
    # The one-draw-per-unit loop the initializer used to run for C.
    drawn, scalar = Rng(1921), Rng(1921)
    net = init(h, m, drawn)
    sigma = math.sqrt(2.0 / (m + h))
    C = np.array([normal_complex(scalar, sigma) for _ in range(h)])
    assert net.C.tobytes() == C.tobytes()
    assert drawn.state == scalar.state
