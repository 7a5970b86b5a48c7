"""Loss, analytic backward pass, and the finite-difference gradient oracle.

The training loss for one sample is

    L = (y - y_true)^2 + lam * e^2.

Gradients are reported as the true partial derivatives with respect to the
real and imaginary parts of every parameter, in one flat float64 vector
shaped like `model.params`.  Its `split_parameters` views pack them as
complex numbers: entry (k, i) of dB holds dL/d(Re B_ki) + i dL/d(Im B_ki),
and dC likewise.

Because the network output o is holomorphic in each parameter, those packed
partials equal (dL/dy + i dL/de) * conj(do/dtheta); the conjugation is what
makes the packing agree with finite differences on the real components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteError
from .model import CauchyNetModel, forward_batch, split_parameters
from .optim import Trainable


@dataclass
class LossValue:
    total: float
    fit: float
    imag_penalty: float


def loss(y: float, e: float, y_true: float, lam: float) -> LossValue:
    """Squared fit error plus lam-weighted squared imaginary error."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    fit = (y - y_true) ** 2
    pen = lam * e * e
    return LossValue(total=fit + pen, fit=fit, imag_penalty=pen)


def batch_gradient(model: CauchyNetModel, X, y_true, lam: float):
    """Mean loss and the mean gradient vector over an (n, m) batch.

    Reuses the forward pass's shifted columns: do/dB_ki = -C_k hidden_k /
    shifted_ki.  The mean over the sample axis is taken in fixed index
    order, so the result is deterministic for a given batch.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    y_true = np.asarray(y_true, dtype=float)
    if len(y_true) != len(X):
        raise LengthMismatch("X and y_true differ in length")
    o, hidden, shifted = forward_batch(model, X)
    y, e = o.real, o.imag
    g = np.empty_like(model.params)
    dB, dC = split_parameters(g, model.h, model.m)

    # overflow surfaces as an explicit NonFiniteError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dLdy = 2.0 * (y - y_true)
        dLde = 2.0 * lam * e
        go = dLdy + 1j * dLde                                # (n,)

        dC[...] = (go[:, None] * np.conj(hidden)).mean(axis=0)
        if model.h > 1:
            ch = -model.C * hidden                           # (n, h)
            for i, s in enumerate(shifted):
                dB[:, i] = (go[:, None] * np.conj(ch / s)).mean(axis=0)
        else:
            # (n, 1) columns would round differently: numpy sums a lone
            # column pairwise and runs a broadcast one-element product
            # through its scalar loop.  The (n, 1, m) arrays are small.
            dodB = -model.C[None, :, None] * hidden[:, :, None] / np.stack(shifted, axis=2)
            dB[...] = (go[:, None, None] * np.conj(dodB)).mean(axis=0)

        fit = float(((y - y_true) ** 2).mean())
        pen = float(lam * (e * e).mean())
    if not np.all(np.isfinite(g)):
        raise NonFiniteError("gradient overflowed")
    return LossValue(fit + pen, fit, pen), g


def backward(model: CauchyNetModel, x, y_true: float, lam: float) -> np.ndarray:
    """Per-sample gradient vector of the loss at input x.

    The batch gradient of the one-row batch (a mean over one sample is
    exact).
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return batch_gradient(model, x, [y_true], lam)[1]


def cauchynet_trainable(model: CauchyNetModel):
    """Bundle a model with its gradient/prediction callables for the trainer."""
    from .model import predict  # read at call time, so a replaced model.predict is used
    return Trainable(model, batch_gradient, predict)


def finite_difference_gradients(model: CauchyNetModel, x, y_true: float,
                                lam: float, step: float = 1e-6) -> np.ndarray:
    """Central-difference partials of the total loss, one entry of `params` at a time.

    Independent of the analytic path: it only calls the forward pass.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]

    probe = CauchyNetModel(model.h, model.m, model.epsilon, model.B, model.C)
    p = probe.params

    def total_loss():
        o, _, _ = forward_batch(probe, x)
        return float((o.real[0] - y_true) ** 2 + lam * o.imag[0] ** 2)

    g = np.empty_like(p)
    for j in range(len(p)):
        p0 = p[j]
        p[j] += step
        up = total_loss()
        p[j] -= 2 * step
        down = total_loss()
        p[j] = p0
        g[j] = (up - down) / (2 * step)
    return g
