"""Model parameterization, forward pass, initialization, and checkpoints.

A model holds a complex bias matrix B (h x m) and a complex coefficient
vector C (length h).  A real input x is embedded as x + 0i, shifted by each
bias row plus the real offset epsilon, multiplied across the input
dimensions and inverted into one hidden activation per row, and combined
linearly:

    hidden_k = prod_i 1/(x_i + B_ki + epsilon)
    o        = sum_k C_k * hidden_k = y + i e

y is the prediction; e is the imaginary error term driven toward zero by
the training penalty.  The hidden layer is the Cauchy kernel of
`kernel.cauchy_block` with shifts B and offset epsilon.
"""

from __future__ import annotations

import math

import numpy as np

from . import fileio
from .activation import DEFAULT_EPSILON
from .complex_linalg import Rng, as_inputs, copy_into, normal_complex, require_finite
from .errors import SchemaError
from .data import ScalerState
from .kernel import cauchy_block, kernel_sum

CHECKPOINT_VERSION = 1
_GOLD = 0.6180339887498949


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

    def __reduce__(self):
        # Rebuilt from the weights, so a pickled or deep-copied model's views
        # are views of its own `params` again.
        return CauchyNetModel, (self.h, self.m, self.epsilon, self.B, self.C)


def split_parameters(vec: np.ndarray, h: int, m: int):
    """Complex (h, m) and (h,) views of a flat real vector in `params` layout."""
    cplx = vec.view(complex)
    return cplx[:h * m].reshape(h, m), cplx[h * m:]


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
                    epsilon: float = DEFAULT_EPSILON) -> CauchyNetModel:
    """The network's initializer: the hidden-unit poles on an ellipse.

    The pole of unit k in input dimension i sits on the origin-centered
    ellipse ``a cos(t) + i b sin(t)``, spaced uniformly by arc length;
    biases are the negated pole positions (minus epsilon) so the shifted
    denominator vanishes exactly on the ellipse.  Higher input dimensions
    follow a golden-ratio progression of arc positions so multi-dimensional
    pole tuples cover the product of ellipses instead of a diagonal.  C is
    drawn i.i.d. N(0, 2/(m+h)) per real part, one complex draw per unit.

    The default semi-axes (6 and 2) are `experiments.ModelSpec`'s defaults,
    init_major and init_minor; experiment presets pass domain-scaled axes.
    """
    B = np.empty((h, m), dtype=complex)
    for i in range(m):
        if i == 0:
            fractions = (np.arange(h) + 0.5) / h
        else:
            fractions = (np.arange(h) * _GOLD * i + 0.5) % 1.0
        ts = _arclength_angles(semi_major, semi_minor, fractions)
        poles = semi_major * np.cos(ts) + 1j * semi_minor * np.sin(ts)
        B[:, i] = -poles - epsilon
    return CauchyNetModel(h, m, epsilon, B, normal_complex(rng, math.sqrt(2.0 / (m + h)), h))


def forward_batch(model: CauchyNetModel, X, work=None):
    """Vectorized forward over an (n, m) batch.

    Returns (o, hidden, shifted): o has shape (n,), hidden (n, h), and
    shifted is the list of the m columns x_i + B_:i + epsilon, each (n, h),
    as `kernel.cauchy_block` builds them.  hidden and the columns are views
    of one complex (m + 1, n, h) array: the leading n rows of `work`, a
    complex (m + 1, >= n, h) buffer, when given, so the next call with it
    overwrites them; otherwise one made fresh for this call and shared with
    no other.  o is always a separate fresh array.
    """
    return cauchy_block(as_inputs(X), model.B, model.epsilon, model.C, work)


def predict(model: CauchyNetModel, X):
    """Batch prediction returning (y, e) arrays.

    The forward output, computed by `kernel.kernel_sum` one block of
    kernel.EVAL_BLOCK rows at a time.
    """
    o = kernel_sum(as_inputs(X), model.B, model.epsilon, model.C)
    return o.real, o.imag


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
