"""Model parameterization, forward pass, initialization, and checkpoints.

A model holds a complex bias matrix B (h x m) and a complex coefficient
vector C (length h).  A real input x is embedded as x + 0i, shifted by each
bias row plus the real offset epsilon, inverted componentwise and
multiplied into one hidden activation per row, and combined linearly:

    hidden_k = prod_i 1/(x_i + B_ki + epsilon)
    o        = sum_k C_k * hidden_k = y + i e

y is the prediction; e is the imaginary error term driven toward zero by
the training penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fileio
from .activation import DEFAULT_EPSILON
from .complex_linalg import Rng, normal_complex, require_finite
from .errors import NonFiniteError, PoleEncountered, SchemaError
from .data import ScalerState

CHECKPOINT_VERSION = 1
_GOLD = 0.6180339887498949


@dataclass
class CauchyNetModel:
    h: int
    m: int
    epsilon: float
    B: np.ndarray   # complex128, shape (h, m)
    C: np.ndarray   # complex128, shape (h,)

    def __post_init__(self):
        if self.h < 1 or self.m < 1:
            raise ValueError("h and m must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        self.B = np.asarray(self.B, dtype=complex)
        self.C = np.asarray(self.C, dtype=complex)
        if self.B.shape != (self.h, self.m):
            raise ValueError(f"B must have shape ({self.h}, {self.m})")
        if self.C.shape != (self.h,):
            raise ValueError(f"C must have shape ({self.h},)")
        require_finite(self.B, "B")
        require_finite(self.C, "C")

    # Trainable-model surface shared with the baseline (see optim.train).
    def parameter_vector(self) -> np.ndarray:
        """Real parameters in the fixed order [Re B, Im B, Re C, Im C]."""
        return np.concatenate([self.B.real.ravel(), self.B.imag.ravel(),
                               self.C.real.ravel(), self.C.imag.ravel()])

    def set_parameter_vector(self, v: np.ndarray) -> None:
        hm = self.h * self.m
        v = np.asarray(v, dtype=float)
        if v.shape != (2 * hm + 2 * self.h,):
            raise ValueError("parameter vector has wrong length")
        self.B = (v[:hm] + 1j * v[hm:2 * hm]).reshape(self.h, self.m)
        self.C = v[2 * hm:2 * hm + self.h] + 1j * v[2 * hm + self.h:]


@dataclass
class ForwardOutput:
    y: float
    e: float
    o: complex
    hidden: np.ndarray  # complex128, shape (h,)


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


def forward(model: CauchyNetModel, x) -> ForwardOutput:
    """Single-sample forward pass; x is a real vector of length m."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (model.m,):
        raise ValueError(f"input must have length {model.m}")
    shifted = x[None, :] + model.B + model.epsilon
    if np.any(shifted == 0):
        raise PoleEncountered("input hits a hidden-unit pole")
    hidden = np.prod(1.0 / shifted, axis=1)
    o = complex(np.dot(model.C, hidden))
    if not (math.isfinite(o.real) and math.isfinite(o.imag)):
        raise NonFiniteError("forward pass overflowed")
    return ForwardOutput(y=o.real, e=o.imag, o=o, hidden=hidden)


def forward_batch(model: CauchyNetModel, X):
    """Vectorized forward over an (n, m) batch.

    Returns (o, hidden, shifted) with shapes (n,), (n, h), (n, h, m).
    Same arithmetic as `forward`, evaluated per sample.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    shifted = X[:, None, :] + model.B[None, :, :] + model.epsilon
    if np.any(shifted == 0):
        raise PoleEncountered("input hits a hidden-unit pole")
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = np.prod(1.0 / shifted, axis=2)
        o = hidden @ model.C
    if not np.all(np.isfinite(o)):
        raise NonFiniteError("forward pass overflowed")
    return o, hidden, shifted


def predict(model: CauchyNetModel, X):
    """Batch prediction returning (y, e) arrays."""
    o, _, _ = forward_batch(model, X)
    return o.real.copy(), o.imag.copy()


def parameter_count(model: CauchyNetModel):
    """(complex_params, real_params) = (h(m+1), 2h(m+1))."""
    cplx = model.h * (model.m + 1)
    return cplx, 2 * cplx


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
