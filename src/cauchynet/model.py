"""Model parameterization, forward pass, initialization, and checkpoints.

A model holds a complex bias matrix B (h x m) and a complex coefficient
vector C (length h).  A real input x is embedded as x + 0i, shifted by each
bias row plus the real offset epsilon, multiplied across the input
dimensions and inverted into one hidden activation per row, and combined
linearly:

    hidden_k = prod_i 1/(x_i + B_ki + epsilon)
    o        = sum_k C_k * hidden_k = y + i e

y is the prediction; e is the imaginary error term driven toward zero by
the training penalty.
"""

from __future__ import annotations

import math

import numpy as np

from . import fileio
from .activation import DEFAULT_EPSILON
from .complex_linalg import Rng, copy_into, normal_complex, require_finite
from .errors import NonFiniteError, PoleEncountered, SchemaError
from .data import ScalerState

CHECKPOINT_VERSION = 1
_GOLD = 0.6180339887498949
# Rows per forward pass in `predict`: a block's (rows, h) complex arrays
# stay inside a 2 MiB L2 cache at the preset widths.
PREDICT_BLOCK = 64


class CauchyNetModel:
    """Biases B (complex, h x m) and coefficients C (complex, h).

    Both are views of one flat float64 buffer, `params`: B row-major, then
    C, each entry as its real part followed by its imaginary part.  The
    views are bound once here and the optimizer updates `params` in place,
    so write into them (`model.B[...] = X`): rebinding `model.B` would
    detach it from `params`.
    """

    def __init__(self, h: int, m: int, epsilon: float, B, C):
        if h < 1 or m < 1:
            raise ValueError("h and m must be at least 1")
        if not epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")
        self.h, self.m, self.epsilon = h, m, epsilon
        self.params = np.zeros(2 * h * (m + 1))
        self.B, self.C = split_parameters(self.params, h, m)
        copy_into(self.B, B, "B")
        copy_into(self.C, C, "C")
        require_finite(self.B, "B")
        require_finite(self.C, "C")


def split_parameters(vec: np.ndarray, h: int, m: int):
    """Complex (h, m) and (h,) views of a flat real vector in `params` layout."""
    cplx = vec.view(complex)
    return cplx[:h * m].reshape(h, m), cplx[h * m:]


def init_xavier_complex(h: int, m: int, rng: Rng,
                        epsilon: float = DEFAULT_EPSILON) -> CauchyNetModel:
    """All components of B and C drawn i.i.d. N(0, 2/(m+h)) per real part.

    B is filled row-major before C, one complex draw per entry, so the
    stream layout is reproducible.
    """
    sigma = math.sqrt(2.0 / (m + h))
    B = np.empty((h, m), dtype=complex)
    for k in range(h):
        for i in range(m):
            B[k, i] = normal_complex(rng, sigma)
    C = np.array([normal_complex(rng, sigma) for _ in range(h)])
    return CauchyNetModel(h, m, epsilon, B, C)


def _arclength_angles(a: float, b: float, fractions: np.ndarray) -> np.ndarray:
    """Parameter angles of points at given arc-length fractions of the ellipse.

    Angle-uniform points crowd toward the ends of a flat ellipse
    (cosine density); arc-length spacing keeps the pole real parts spread
    evenly across the enclosed interval.
    """
    tt = np.linspace(0.0, 2 * np.pi, 4097)
    speed = np.hypot(a * np.sin(tt), b * np.cos(tt))
    arc = np.concatenate([[0.0],
                          np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(tt))])
    return np.interp(arc[-1] * fractions, arc, tt)


def init_elliptical(h: int, m: int, rng: Rng,
                    semi_major: float = 6.0, semi_minor: float = 2.0,
                    center: complex = 0j,
                    epsilon: float = DEFAULT_EPSILON) -> CauchyNetModel:
    """Experimental initializer placing the hidden-unit poles on an ellipse.

    The pole of unit k in input dimension i sits on
    ``center + a cos(t) + i b sin(t)``, spaced uniformly by arc length;
    biases are the negated pole positions (minus epsilon) so the shifted
    denominator vanishes exactly on the ellipse.  Higher input dimensions
    follow a golden-ratio progression of arc positions so multi-dimensional
    pole tuples cover the product of ellipses instead of a diagonal.  C
    follows the normal scheme.

    The default semi-axes (6 and 2) match the contour used by the kernel
    demo; experiment presets pass domain-scaled axes instead.
    """
    sigma = math.sqrt(2.0 / (m + h))
    B = np.empty((h, m), dtype=complex)
    for i in range(m):
        if i == 0:
            fractions = (np.arange(h) + 0.5) / h
        else:
            fractions = (np.arange(h) * _GOLD * i + 0.5) % 1.0
        ts = _arclength_angles(semi_major, semi_minor, fractions)
        poles = center + semi_major * np.cos(ts) + 1j * semi_minor * np.sin(ts)
        B[:, i] = -poles - epsilon
    C = np.array([normal_complex(rng, sigma) for _ in range(h)])
    return CauchyNetModel(h, m, epsilon, B, C)


def forward_batch(model: CauchyNetModel, X):
    """Vectorized forward over an (n, m) batch.

    Returns (o, hidden, shifted): o has shape (n,), hidden (n, h), and
    shifted is the list of the m columns x_i + B_:i + epsilon, each (n, h).
    hidden is the left-to-right product of the columns, inverted once.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[1] != model.m:
        raise ValueError(f"inputs must have {model.m} columns")
    B = model.B
    shifted = [X[:, i, None] + B[None, :, i] + model.epsilon for i in range(model.m)]
    # a pole or an overflow surfaces through the finiteness check of o
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prod = shifted[0]
        for s in shifted[1:]:
            prod = prod * s
        hidden = 1.0 / prod
        o = hidden @ model.C
    if not np.all(np.isfinite(o)):
        if any(np.any(s == 0) for s in shifted):
            raise PoleEncountered("input hits a hidden-unit pole")
        raise NonFiniteError("forward pass overflowed")
    return o, hidden, shifted


def predict(model: CauchyNetModel, X):
    """Batch prediction returning (y, e) arrays.

    Runs `forward_batch` over blocks of PREDICT_BLOCK rows (the last may
    be shorter).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    n = len(X)
    y, e = np.empty(n), np.empty(n)
    for lo in range(0, n, PREDICT_BLOCK):
        block = slice(lo, lo + PREDICT_BLOCK)
        o, _, _ = forward_batch(model, X[block])
        y[block], e[block] = o.real, o.imag
    return y, e


def parameter_count(model: CauchyNetModel):
    """(complex_params, real_params) = (h(m+1), 2h(m+1))."""
    return model.params.size // 2, model.params.size


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(model: CauchyNetModel, scaler: ScalerState, path,
                    seed: int = 0) -> None:
    """Versioned JSON checkpoint with separate real/imaginary arrays.

    Floats serialize via repr (17 significant digits), so a load reproduces
    every parameter bit-exactly.
    """
    fileio.write_json(path, {
        "version": CHECKPOINT_VERSION,
        "h": model.h,
        "m": model.m,
        "epsilon": model.epsilon,
        "B_re": model.B.real.tolist(),
        "B_im": model.B.imag.tolist(),
        "C_re": model.C.real.tolist(),
        "C_im": model.C.imag.tolist(),
        "scaler": fileio.scaler_doc(scaler),
        "seed": int(seed),
    })


def load_checkpoint(path):
    """Load (model, scaler) from a checkpoint written by save_checkpoint.

    Any malformed field raises SchemaError.
    """
    doc = fileio.read_json(path, CHECKPOINT_VERSION)
    h, m = fileio.read_int(doc, "h", path), fileio.read_int(doc, "m", path)
    B = fileio.read_complex(doc, "B", (h, m), path)
    C = fileio.read_complex(doc, "C", (h,), path)
    scaler = fileio.read_scaler(doc, path)
    try:
        model = CauchyNetModel(h, m, fileio.read_number(doc, "epsilon", path), B, C)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    return model, scaler
