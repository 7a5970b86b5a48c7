"""Cauchy kernel, contour meshes, and the quadrature expansion oracle.

A holomorphic function on a neighborhood of a product of ellipses can be
reconstructed inside from boundary samples:

    f(x) ~ sum_k theta_k * K(xi_k, x),   K(xi, x) = prod_i 1/(xi_i - x_i),

with theta_k = f(zeta_k) * dzeta_k / (2 pi i)^N from trapezoidal contour
quadrature.  On parametrized ellipses the integrand is periodic and
analytic, so the error decays geometrically in the node count; this makes
the expansion an independent, training-free reference for approximation
tests.

Every kernel evaluation goes through one helper that builds the kernel
matrix for at most EVAL_BLOCK points at a time from N 2-D difference
columns, so no (n, k, N) array is ever formed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import fileio
from .errors import PoleEncountered, SingularSystem

DEFAULT_RIDGE = 1e-15
# Points per kernel block: a (64, k) complex block is ~2.4 MB at the 2304
# centres of a 48x48 two-dimensional quadrature, about one L2 cache.
EVAL_BLOCK = 64


@dataclass
class BoundaryMesh:
    """Per-dimension contour nodes and complex arc increments.

    nodes[i][j] is the j-th node on the boundary contour of dimension i;
    increments[i][j] the matching trapezoidal d(zeta).  A closed contour's
    increments sum to zero.
    """
    nodes: list        # list of complex arrays, one per dimension
    increments: list   # matching complex arrays

    @property
    def ndim(self) -> int:
        return len(self.nodes)


@dataclass
class KernelExpansion:
    xi: np.ndarray      # complex (k, N) boundary points
    theta: np.ndarray   # complex (k,) weights

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        if self.xi.ndim == 1:
            self.xi = self.xi[:, None]
        self.theta = np.asarray(self.theta, dtype=complex)
        if len(self.xi) != len(self.theta):
            raise ValueError("points and weights differ in length")


def _kernel_block(xi, X, out=None) -> np.ndarray:
    """The (rows, k) kernel matrix prod_i 1/(xi_ki - X_ji).

    xi is a complex (k, N) array of centres and X a real (rows, N) block of
    points.  The N differences are formed as (rows, k) columns, the layout
    `model.forward_batch` uses, multiplied in place into `out` (allocated
    when None) and inverted once.  A zero difference leaves the block
    non-finite; only then are the columns scanned for an exact hit, which
    raises PoleEncountered.
    """
    if X.shape[1] != xi.shape[1]:
        raise ValueError(f"points must have {xi.shape[1]} coordinates, got {X.shape[1]}")
    K = np.subtract(xi[:, 0], X[:, 0, None], out=out)
    for i in range(1, X.shape[1]):
        K *= xi[:, i] - X[:, i, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.reciprocal(K, out=K)
    if not np.all(np.isfinite(K)) and any(
            np.any(xi[:, i] == X[:, i, None]) for i in range(X.shape[1])):
        raise PoleEncountered("evaluation point coincides with a kernel centre")
    return K


def cauchy_kernel(xi, x) -> complex:
    """prod_i 1/(xi_i - x_i); raises PoleEncountered on a zero factor."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return complex(_kernel_block(xi[None, :], x[None, :])[0, 0])


def ellipse_mesh(a: float, b: float, center: complex = 0j,
                 nodes: int = 64) -> BoundaryMesh:
    """Equal-parameter trapezoidal mesh of the ellipse a*cos t + i b*sin t."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if nodes < 4:
        raise ValueError("need at least 4 nodes")
    t = 2 * np.pi * np.arange(nodes) / nodes
    zeta = center + a * np.cos(t) + 1j * b * np.sin(t)
    dzeta = (-a * np.sin(t) + 1j * b * np.cos(t)) * (2 * np.pi / nodes)
    return BoundaryMesh([zeta], [dzeta])


def quadrature_expansion(f_boundary, mesh: BoundaryMesh) -> KernelExpansion:
    """Discretize the boundary integral of f against the Cauchy kernel.

    For each tensor-product node zeta_k the weight is
    f(zeta_k) * prod_i dzeta_k,i / (2 pi i)^N.  f_boundary receives a
    complex scalar for N=1 and a complex vector for N>1.
    """
    N = mesh.ndim
    scale = (2j * np.pi) ** N
    points, weights = [], []
    for combo in itertools.product(*(range(len(nd)) for nd in mesh.nodes)):
        zeta = np.array([mesh.nodes[i][j] for i, j in enumerate(combo)])
        dz = np.prod([mesh.increments[i][j] for i, j in enumerate(combo)])
        fval = f_boundary(zeta[0] if N == 1 else zeta)
        points.append(zeta)
        weights.append(complex(fval) * dz / scale)
    return KernelExpansion(np.array(points), np.array(weights))


def evaluate_expansion(exp: KernelExpansion, x) -> complex:
    """sum_k theta_k K(xi_k, x); an empty expansion evaluates to 0."""
    if len(exp.theta) == 0:
        return 0j
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return complex((_kernel_block(exp.xi, x[None, :]) @ exp.theta)[0])


def evaluate_expansion_grid(exp: KernelExpansion, xs) -> np.ndarray:
    """evaluate_expansion over an (n,) or (n, N) array of points.

    Fills the result EVAL_BLOCK points at a time with `block @ theta`, so
    the working set is one (EVAL_BLOCK, k) kernel block whatever n is.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    out = np.empty(len(xs), dtype=complex)
    for r in range(0, len(xs), EVAL_BLOCK):
        out[r:r + EVAL_BLOCK] = _kernel_block(exp.xi, xs[r:r + EVAL_BLOCK]) @ exp.theta
    return out


def fit_expansion_least_squares(samples, points, ridge: float = DEFAULT_RIDGE
                                ) -> KernelExpansion:
    """Weights minimizing sum_j |sum_k theta_k K(xi_k, x_j) - f_j|^2 + ridge*|theta|^2.

    The design matrix A is built in EVAL_BLOCK-row blocks into one (n, k+1)
    buffer whose last column is f.  R = qr([A | f], mode="r") reduces the
    problem to R[:k, :k] theta ~ R[:k, k] (fewer than k rows when n < k),
    solved through its SVD with the filter factors s/(s^2 + ridge): in
    exact arithmetic the same weights as that filter on the SVD of A,
    without forming Q or A's (n, k) left singular vectors.  Cauchy-kernel
    design matrices are too ill-conditioned for explicit normal equations.
    samples is a sequence of (x, f(x)).
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    points = np.asarray(points, dtype=complex)
    if points.ndim == 1:
        points = points[:, None]
    if len(points) < 1:
        raise ValueError("need at least one boundary point")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")

    xs = np.array([np.atleast_1d(np.asarray(s[0], dtype=float)) for s in samples])
    k = len(points)
    Af = np.empty((len(xs), k + 1), dtype=complex)
    Af[:, k] = [complex(s[1]) for s in samples]
    for r in range(0, len(xs), EVAL_BLOCK):
        _kernel_block(points, xs[r:r + EVAL_BLOCK], out=Af[r:r + EVAL_BLOCK, :k])

    R = np.linalg.qr(Af, mode="r")
    try:
        U, s, Vh = np.linalg.svd(R[:k, :k], full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"SVD failed: {exc}") from None
    # numpy's matrix_rank tolerance: rounding leaves a repeated column's s near 0, not at 0
    if ridge == 0 and s.min() <= s.max() * max(R[:k, :k].shape) * np.finfo(float).eps:
        raise SingularSystem("design matrix is rank-deficient with ridge 0")
    filt = s / (s * s + ridge)
    theta = Vh.conj().T @ (filt * (U.conj().T @ R[:k, k]))
    if not np.all(np.isfinite(theta)):
        raise SingularSystem("regularized solve produced non-finite weights")
    return KernelExpansion(points, theta)


def save_expansion(exp: KernelExpansion, path) -> None:
    fileio.write_json(path, {
        "version": 1,
        "xi_re": exp.xi.real.tolist(),
        "xi_im": exp.xi.imag.tolist(),
        "theta_re": exp.theta.real.tolist(),
        "theta_im": exp.theta.imag.tolist(),
    })


def load_expansion(path) -> KernelExpansion:
    """Load an expansion; any malformed field raises SchemaError."""
    doc = fileio.read_json(path, 1)
    xi = fileio.read_complex(doc, "xi", (None, None), path)
    return KernelExpansion(xi, fileio.read_complex(doc, "theta", (len(xi),), path))
