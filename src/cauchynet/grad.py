"""Loss, analytic backward pass, and the finite-difference gradient oracle.

The training loss for one sample is

    L = (y - y_true)^2 + lam * e^2.

Gradients are reported as the true partial derivatives with respect to the
real and imaginary parts of every parameter, packed as complex numbers:
entry (k, i) of dB holds dL/d(Re B_ki) + i dL/d(Im B_ki), and dC likewise.

Because the network output o is holomorphic in each parameter, those packed
partials equal (dL/dy + i dL/de) * conj(do/dtheta); the conjugation is what
makes the packing agree with finite differences on the real components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFiniteError
from .model import CauchyNetModel, ForwardOutput, forward_batch, split_parameters


@dataclass
class LossValue:
    total: float
    fit: float
    imag_penalty: float


@dataclass
class GradientSet:
    dB: np.ndarray  # complex (h, m): dL/dReB + i dL/dImB
    dC: np.ndarray  # complex (h,)

    def to_vector(self) -> np.ndarray:
        """Flat real gradient in the CauchyNetModel.params layout."""
        return np.concatenate([np.ravel(self.dB).view(float), np.ravel(self.dC).view(float)])

    @classmethod
    def from_vector(cls, v: np.ndarray, h: int, m: int) -> "GradientSet":
        return cls(*split_parameters(np.ascontiguousarray(v, dtype=float), h, m))


def loss(y: float, e: float, y_true: float, lam: float) -> LossValue:
    """Squared fit error plus lam-weighted squared imaginary error."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    fit = (y - y_true) ** 2
    pen = lam * e * e
    return LossValue(total=fit + pen, fit=fit, imag_penalty=pen)


def batch_gradient(model: CauchyNetModel, X, y_true, lam: float):
    """Mean loss and mean gradients over an (n, m) batch.

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

    # overflow surfaces as an explicit NonFiniteError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dLdy = 2.0 * (y - y_true)
        dLde = 2.0 * lam * e
        go = dLdy + 1j * dLde                                # (n,)

        dC = (go[:, None] * np.conj(hidden)).mean(axis=0)
        if model.h > 1:
            ch = -model.C * hidden                           # (n, h)
            dB = np.stack([(go[:, None] * np.conj(ch / s)).mean(axis=0)
                           for s in shifted], axis=1)
        else:
            # (n, 1) columns would round differently: numpy sums a lone
            # column pairwise and runs a broadcast one-element product
            # through its scalar loop.  The (n, 1, m) arrays are small.
            dodB = -model.C[None, :, None] * hidden[:, :, None] / np.stack(shifted, axis=2)
            dB = (go[:, None, None] * np.conj(dodB)).mean(axis=0)

        fit = float(((y - y_true) ** 2).mean())
        pen = float(lam * (e * e).mean())
    grads = GradientSet(dB, dC)
    if not (np.all(np.isfinite(grads.dB)) and np.all(np.isfinite(grads.dC))):
        raise NonFiniteError("gradient overflowed")
    return LossValue(fit + pen, fit, pen), grads


def backward(model: CauchyNetModel, fo: ForwardOutput, x, y_true: float,
             lam: float) -> GradientSet:
    """Per-sample gradients of the loss at input x.

    The batch gradient of the one-row batch (a mean over one sample is
    exact).  fo, the forward output at x, is not needed: the batch path
    recomputes it.
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return batch_gradient(model, x, [y_true], lam)[1]


def cauchynet_trainable(model: CauchyNetModel):
    """Bundle a model with its gradient/prediction callables for the trainer."""
    from .model import predict
    from .optim import Trainable

    def _grad(m, X, y, lam):
        lv, gs = batch_gradient(m, X, y, lam)
        return lv, gs.to_vector()

    return Trainable(model=model, batch_gradient=_grad, predict=predict)


def finite_difference_gradients(model: CauchyNetModel, x, y_true: float,
                                lam: float, step: float = 1e-6) -> GradientSet:
    """Central-difference partials of the total loss, one parameter at a time.

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
    return GradientSet.from_vector(g, model.h, model.m)
