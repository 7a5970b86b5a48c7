"""Real-valued single-hidden-layer ReLU network trained by the shared loop.

Serves as the reference point for the spike-approximation comparison: same
hidden width, same optimizer budget, standard backprop.
"""

from __future__ import annotations

import math

import numpy as np

from . import fileio
from .complex_linalg import Rng, as_inputs, copy_into, normal_complex
from .data import ScalerState
from .errors import NonFiniteError, SchemaError
from .grad import LossValue
from .optim import Trainable

MLP_CHECKPOINT_VERSION = 1


class MlpModel:
    """ReLU network y = W2 . relu(W1 x + b1) + b2.

    W1 (h, m), b1 (h,) and W2 (h,) are views of one flat float64 buffer,
    `params` = [W1 row-major, b1, W2, b2], bound once here; the optimizer
    updates the buffer in place, so write into the views, not over them.
    """

    def __init__(self, W1, b1, W2, b2: float):
        W1 = np.asarray(W1, dtype=float)
        if W1.ndim != 2:
            raise ValueError("W1 must be a matrix")
        self.h, self.m = W1.shape
        self.params = np.zeros(self.h * (self.m + 2) + 1)
        self.W1, self.b1, self.W2 = split_mlp_parameters(self.params, self.h, self.m)
        copy_into(self.W1, W1, "W1")
        copy_into(self.b1, b1, "b1")
        copy_into(self.W2, W2, "W2")
        self.b2 = b2

    def __reduce__(self):
        # Rebuilt from the weights, so a pickled or deep-copied model's views
        # are views of its own `params` again.
        return MlpModel, (self.W1, self.b1, self.W2, self.b2)

    @property
    def b2(self) -> float:
        return float(self.params[-1])

    @b2.setter
    def b2(self, value: float) -> None:
        self.params[-1] = value


def split_mlp_parameters(vec: np.ndarray, h: int, m: int):
    """(h, m), (h,) and (h,) views W1, b1, W2 of a flat vector in `params` layout."""
    hm = h * m
    return vec[:hm].reshape(h, m), vec[hm:hm + h], vec[hm + h:hm + 2 * h]


def init_mlp(h: int, m: int, rng: Rng) -> MlpModel:
    """Kaiming-style normals for the weights, zero biases.

    The h(m + 1) unit normals are the real and imaginary parts of
    ceil(h(m + 1) / 2) complex draws, in order (an odd count drops the last
    imaginary part); W1 takes the first h*m scaled by sqrt(2/m), W2 the
    rest scaled by sqrt(2/h).
    """
    hm = h * m
    z = normal_complex(rng, 1.0, (hm + h + 1) // 2).view(float)
    W1 = z[:hm].reshape(h, m) * math.sqrt(2.0 / m)
    W2 = z[hm:hm + h] * math.sqrt(2.0 / h)
    return MlpModel(W1, np.zeros(h), W2, 0.0)


def mlp_parameter_count(model: MlpModel) -> int:
    return model.params.size


def mlp_predict(model: MlpModel, X):
    """Batch prediction; the imaginary channel is identically zero.

    An overflow raises NonFiniteError instead of returning inf or NaN.
    """
    X = as_inputs(X)
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.dot(X, model.W1.T) + model.b1
        y = np.maximum(pre, 0.0) @ model.W2 + model.b2
    if not np.isfinite(y).all():
        raise NonFiniteError("baseline prediction overflowed")
    return y, np.zeros_like(y)


def mlp_batch_gradient(model: MlpModel, X, y_true, lam: float = 0.0):
    """Mean squared-error loss and flat gradient over a batch.

    lam is accepted for trainer compatibility; the output has no imaginary
    part to penalize.
    """
    X = as_inputs(X)
    y_true = np.asarray(y_true, dtype=float)
    n = len(X)
    W2 = model.W2
    g = np.empty_like(model.params)
    dW1, db1, dW2 = split_mlp_parameters(g, model.h, model.m)
    # overflow surfaces as an explicit NonFiniteError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        pre = np.dot(X, model.W1.T) + model.b1
        z = np.maximum(pre, 0.0)
        y = z @ W2 + model.b2
        r = 2.0 * (y - y_true) / n
        dW2[...] = r @ z
        g[-1] = r.sum()
        dpre = r[:, None] * W2[None, :] * (pre > 0)
        dW1[...] = dpre.T @ X
        db1[...] = dpre.sum(axis=0)
        fit = float(((y - y_true) ** 2).mean())
    if not np.isfinite(g).all():
        raise NonFiniteError("baseline gradient overflowed")
    return LossValue(fit, fit, 0.0), g


def mlp_trainable(model: MlpModel) -> Trainable:
    return Trainable(model=model, batch_gradient=mlp_batch_gradient,
                     predict=mlp_predict)


def save_mlp_checkpoint(model: MlpModel, scaler: ScalerState, path,
                        seed: int = 0) -> None:
    fileio.write_json(path, {
        "version": MLP_CHECKPOINT_VERSION,
        "model_type": "relu_mlp",
        "h": model.h,
        "m": model.m,
        "W1": model.W1.tolist(),
        "b1": model.b1.tolist(),
        "W2": model.W2.tolist(),
        "b2": model.b2,
        "scaler": fileio.scaler_doc(scaler),
        "seed": int(seed),
    })


def load_mlp_checkpoint(path):
    """Load (model, scaler); any malformed field raises SchemaError."""
    doc = fileio.read_json(path, MLP_CHECKPOINT_VERSION)
    if doc.get("model_type") != "relu_mlp":
        raise SchemaError(f"{path}: not a relu_mlp checkpoint")
    h, m = fileio.read_int(doc, "h", path), fileio.read_int(doc, "m", path)
    model = MlpModel(fileio.read_array(doc, "W1", (h, m), path),
                     fileio.read_array(doc, "b1", (h,), path),
                     fileio.read_array(doc, "W2", (h,), path),
                     fileio.read_number(doc, "b2", path))
    return model, fileio.read_scaler(doc, path)
