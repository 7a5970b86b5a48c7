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

Over a batch of n rows, with go = dL/dy + i dL/de per row, the mean
packed partial is conj(cg @ do/dtheta) for the one complex weight vector
cg = conj(go) / n = (2/n) ((y - y_true) - i lam e): a single
matrix-vector product per parameter block and one conjugation of its
(h,) result, instead of conjugating and averaging an (n, h) array.
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


def batch_gradient(model: CauchyNetModel, X, y_true, lam: float):
    """Mean loss and the mean gradient vector over an (n, m) batch.

    With cg as in the module docstring, each block is one matrix-vector
    product: dC = conj(cg @ hidden) and dB[:, i] = -conj(C) * conj(cg @ P_i)
    for P_i = hidden / shifted_i, formed without a division as hidden *
    hidden times the other m - 1 forward-pass columns, left to right.
    """
    y_true = np.asarray(y_true, dtype=float)
    if len(y_true) != len(X):
        raise LengthMismatch("X and y_true differ in length")
    if len(X) == 0:
        raise LengthMismatch("the batch is empty")
    o, hidden, shifted = forward_batch(model, X)
    y, e = o.real, o.imag
    g = np.empty_like(model.params)
    dB, dC = split_parameters(g, model.h, model.m)

    # overflow surfaces as an explicit NonFiniteError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        r = y - y_true
        cg = (2.0 / len(X)) * (r - 1j * lam * e)             # (n,)
        dC[...] = np.conj(cg @ hidden)
        # hidden is this call's own forward buffer and is not read again;
        # every P_i with m > 1 reuses one (n, h) array
        hh = np.multiply(hidden, hidden, out=hidden)
        buf = np.empty_like(hh) if model.m > 1 else None
        minus_conj_c = -np.conj(model.C)
        for i in range(model.m):
            P = hh
            for s in (s for j, s in enumerate(shifted) if j != i):
                P = np.multiply(P, s, out=buf)
            dB[:, i] = minus_conj_c * np.conj(cg @ P)

        fit = float((r ** 2).mean())
        pen = float(lam * (e * e).mean())
    if not np.isfinite(g).all():
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
