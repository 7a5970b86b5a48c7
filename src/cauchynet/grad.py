"""Loss, the analytic batch gradient, and the finite-difference gradient oracle.

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


class GradientWork:
    """The buffers `batch_gradient` writes into, for a model of width h with
    m inputs and batches of up to `rows` rows: the complex (m + 1, rows, h)
    kernel block of `kernel.cauchy_block`, for m >= 3 one (rows, h) buffer
    for the P_i, and the flat gradient vector with its dB and dC views.  A
    shorter batch uses the leading rows.
    """

    def __init__(self, h: int, m: int, rows: int):
        self.kernel = np.empty((m + 1, rows, h), dtype=complex)
        self.P = np.empty((rows, h), dtype=complex) if m > 2 else None
        self.grad = np.empty(2 * h * (m + 1))
        self.dB, self.dC = split_parameters(self.grad, h, m)


def batch_gradient(model: CauchyNetModel, X, y_true, lam: float, work=None):
    """Mean loss and the mean gradient vector over an (n, m) batch.

    With cg as in the module docstring, each block is one matrix-vector
    product: dC = conj(cg @ hidden) and dB[:, i] = -conj(C) * conj(cg @ P_i)
    for P_i = hidden / shifted_i, formed without a division as hidden *
    hidden times the other m - 1 forward-pass columns, left to right.  dB
    is computed as -conj(C * (cg @ P_i)), the same bytes: rounding to
    nearest is symmetric under negation and conjugation.  For m <= 2 the
    P_i are one (m, n, h) stack and the dB columns one product.

    work is a `GradientWork` for the model's h and m and at least n rows;
    the returned gradient vector is its `grad`, which the next call with it
    overwrites.  Without one the call makes its own, so the vector is fresh.
    """
    y_true = np.asarray(y_true, dtype=float)
    if len(y_true) != len(X):
        raise LengthMismatch("X and y_true differ in length")
    n = len(X)
    if n == 0:
        raise LengthMismatch("the batch is empty")
    if work is None:
        work = GradientWork(model.h, model.m, n)
    o, hidden, shifted = forward_batch(model, X, work.kernel)
    y, e = o.real, o.imag
    g, dB, dC = work.grad, work.dB, work.dC

    # overflow surfaces as an explicit NonFiniteError below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        r = y - y_true
        cg = (2.0 / n) * (r - 1j * lam * e)                  # (n,)
        np.conjugate(cg @ hidden, out=dC)
        # hidden and the columns are not read again after they make the P_i
        hh = np.multiply(hidden, hidden, out=hidden)
        if model.m <= 2:
            if model.m == 2:
                # hh * s_j written over column j is P_(1 - j), so the
                # columns in reverse order are the P_i
                for s in shifted:
                    np.multiply(hh, s, out=s)
            P = hh[None] if model.m == 1 else work.kernel[1::-1, :n]
            cgP = cg @ P
            np.multiply(model.C, cgP, out=cgP)
            np.negative(np.conjugate(cgP, out=cgP), out=dB.T)
        else:
            for i in range(model.m):
                P = hh
                for s in (s for j, s in enumerate(shifted) if j != i):
                    P = np.multiply(P, s, out=work.P[:n])
                dB[:, i] = -np.conj(model.C * (cg @ P))

        # the sums and divisions of .mean(), without its per-call wrapper
        fit = float(np.add.reduce(r * r)) / n
        pen = lam * (float(np.add.reduce(e * e)) / n)
    if not np.isfinite(g).all():
        raise NonFiniteError("gradient overflowed")
    return LossValue(fit + pen, fit, pen), g


def cauchynet_trainable(model: CauchyNetModel):
    """Bundle a model with its gradient/prediction callables for the trainer.

    The gradient callable passes one `GradientWork` to every
    `batch_gradient` call: made at its first call, sized to that batch (the
    trainer's first batch is its longest), and made again only for a longer
    one.  So the gradient vector it returns is overwritten by its next call;
    the trainer hands it to `adam_step` at once.
    """
    from .model import predict  # read at call time, so a replaced model.predict is used
    work = None

    def gradient(net, X, y_true, lam):
        nonlocal work
        if work is None or len(X) > work.kernel.shape[1]:
            work = GradientWork(net.h, net.m, len(X))
        return batch_gradient(net, X, y_true, lam, work)

    return Trainable(model, gradient, predict)


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
