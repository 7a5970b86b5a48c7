"""Cauchy kernel, contour meshes, and the quadrature expansion oracle.

A holomorphic function on a neighborhood of a product of ellipses can be
reconstructed inside from boundary samples:

    f(x) ~ sum_k theta_k * K(xi_k, x),   K(xi, x) = prod_i 1/(xi_i - x_i),

with theta_k = f(zeta_k) * dzeta_k / (2 pi i)^N from trapezoidal contour
quadrature.  On parametrized ellipses the integrand is periodic and
analytic, so the error decays geometrically in the node count; this makes
the expansion an independent, training-free reference for approximation
tests.

The network's hidden layer is the same kernel: hidden_k = prod_i
1/(x_i + B_ki + eps) = (-1)^N K(xi_k, x) for centres xi = -(B + eps).
`cauchy_block` computes it, and its weighted sum, for a block of rows: the
network's forward pass and `predict`, the scalar activation, and every
expansion whose centres are not a tensor grid go through it.  When the
centres are the full tensor product of N >= 2 per-dimension node sets, as
`quadrature_expansion` makes them, the kernel factorises per dimension and
the expansion's evaluation and least-squares fit take only the n * sum_i
n_i per-dimension reciprocals (`_factor_rows`).  Both walk an input
EVAL_BLOCK rows at a time, so no (n, k, N) array is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .complex_linalg import as_inputs
from .errors import NonFiniteError, PoleEncountered, SingularSystem

DEFAULT_RIDGE = 1e-15
# Rows per kernel block: a (64, k) complex block is ~2.4 MB at the 2304
# centres of a 48x48 two-dimensional quadrature, about one L2 cache, and
# the network's (64, h) blocks fit it at every preset width.
EVAL_BLOCK = 64
# Rows of each diagonal block that `_back_substitute` solves at once.
_SOLVE_BLOCK = 64


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


def cauchy_block(X, shifts, eps, weights, work=None):
    """(o, hidden, shifted) with hidden = 1 / prod_i (x_i + shifts_:i + eps)
    and o = hidden @ weights.

    X is a real (rows, m) block, shifts a complex (h, m) array, eps a real
    offset and weights a complex (h,) vector.  shifted is the list of the m
    (rows, h) columns X[:, i, None] + shifts[:, i] + eps; they are
    multiplied left to right with complex `*` and 1.0 is divided by the
    product once.  The columns and hidden are the m + 1 leading (rows, h)
    slices of one complex (m + 1, >= rows, h) buffer, `work`, allocated
    here when not given; every step writes into it in place, so a call
    makes no other (rows, h) array.  o is always a fresh array.  The one
    finiteness check is on o, h times smaller than hidden: a non-finite
    hidden entry makes its row of o non-finite too (inf * 0 is NaN), as
    does an overflowing sum.  Only when it fails are the columns scanned
    for an exact zero: PoleEncountered for a hit, NonFiniteError otherwise.
    """
    rows, m = X.shape
    if m != shifts.shape[1]:
        raise ValueError(f"inputs must have {shifts.shape[1]} columns, got {m}")
    if work is None:
        work = np.empty((m + 1, rows, len(shifts)), dtype=complex)
    shifted = [np.add(X[:, i, None], shifts[:, i], out=work[i, :rows]) for i in range(m)]
    for s in shifted:
        s += eps
    hidden = work[m, :rows]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prod = shifted[0] if m == 1 else np.multiply(shifted[0], shifted[1], out=hidden)
        for s in shifted[2:]:
            prod *= s
        np.divide(1.0, prod, out=hidden)
        o = hidden @ weights
    if not np.isfinite(o).all():
        _raise_non_finite(shifted)
    return o, hidden, shifted


def _raise_non_finite(columns):
    """The error for a non-finite kernel block built from these columns:
    PoleEncountered if one holds an exact zero, NonFiniteError otherwise."""
    if any(np.any(c == 0) for c in columns):
        raise PoleEncountered("input coincides with a kernel pole")
    raise NonFiniteError("kernel block overflowed")


def kernel_rows(X, shifts, eps, weights):
    """Yield (rows, o, hidden) of `cauchy_block` over consecutive
    EVAL_BLOCK-row blocks of X.

    Every block writes into one (m + 1, min(n, EVAL_BLOCK), h) buffer
    allocated for this call (the last, shorter block uses its leading
    rows), so each yielded hidden is overwritten by the next block; o is a
    fresh array.
    """
    work = np.empty((shifts.shape[1] + 1, min(len(X), EVAL_BLOCK), len(shifts)),
                    dtype=complex)
    for lo in range(0, len(X), EVAL_BLOCK):
        rows = slice(lo, lo + EVAL_BLOCK)
        yield (rows, *cauchy_block(X[rows], shifts, eps, weights, work)[:2])


def kernel_sum(X, shifts, eps, weights) -> np.ndarray:
    """o = hidden @ weights over all rows of X, one block at a time."""
    out = np.empty(len(X), dtype=complex)
    for rows, o, _ in kernel_rows(X, shifts, eps, weights):
        out[rows] = o
    return out


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

    The nodes zeta_k are the tensor product of the per-dimension contour
    nodes, the last dimension varying fastest, and each weight is
    f(zeta_k) * prod_i dzeta_k,i / (2 pi i)^N.  f_boundary is called once,
    on the complex (N, k) array of all nodes with one row per dimension; it
    returns the k values in any shape that broadcasts to (1, k), so a
    constant such as `lambda z: 1.0` serves.  A non-finite value (f has a
    pole on the contour) raises NonFiniteError.
    """
    zeta = np.stack([g.ravel() for g in np.meshgrid(*mesh.nodes, indexing="ij")])
    dz = reduce(np.multiply.outer, mesh.increments).ravel()
    fval = np.broadcast_to(np.asarray(f_boundary(zeta), dtype=complex), (1, len(dz)))[0]
    if not np.all(np.isfinite(fval)):
        raise NonFiniteError("f_boundary is not finite at every contour node")
    return KernelExpansion(zeta.T, fval * dz / (2j * np.pi) ** mesh.ndim)


def _tensor_grid(xi):
    """(nodes, flat) when the k centres xi (k, N) are every point of a
    tensor grid with N >= 2 dimensions of at least 2 nodes each, else None.

    nodes[i] holds the n_i distinct values of column i, sorted; the centres
    are a full grid when the n_i multiply to k and no two centres share a
    grid point, in any order.  flat[c] is centre c's index in the C-order
    (last dimension fastest) flattening of the n_1 x ... x n_N grid.  A
    dimension of one node factors nothing out, and leaving it to
    `kernel_sum` keeps a one-centre expansion equal to `predict` byte for
    byte.
    """
    k, N = xi.shape
    if N < 2:
        return None
    nodes, index = zip(*(np.unique(xi[:, i], return_inverse=True) for i in range(N)))
    shape = [len(v) for v in nodes]
    if min(shape) < 2 or math.prod(shape) != k:
        return None
    flat = np.ravel_multi_index(index, shape)
    if np.bincount(flat, minlength=k).max() > 1:
        return None
    return nodes, flat


def _factor_rows(X, nodes):
    """Yield (rows, factors, diffs) over consecutive EVAL_BLOCK-row blocks of
    X, with diffs[i] = nodes[i] - X[rows, i, None] and factors[i] = 1 / diffs[i],
    each (rows, n_i): K(xi, x) for the grid point (j_1, ..., j_N) is the
    product of factors[i][:, j_i] over i.  Division by zero is left to the
    caller's finiteness check of the block it builds from them.
    """
    if X.shape[1] != len(nodes):
        raise ValueError(f"inputs must have {len(nodes)} columns, got {X.shape[1]}")
    for lo in range(0, len(X), EVAL_BLOCK):
        rows = slice(lo, lo + EVAL_BLOCK)
        diffs = [v - X[rows, i, None] for i, v in enumerate(nodes)]
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = [1.0 / d for d in diffs]
        yield rows, factors, diffs


def evaluate_expansion_grid(exp: KernelExpansion, xs) -> np.ndarray:
    """sum_k theta_k K(xi_k, x) at each of an (n,) or (n, N) array of points.

    On a tensor grid of centres (`_tensor_grid`) theta becomes the
    n_1 x ... x n_N weight tensor W, and each block contracts it with the
    per-dimension factors: one (rows, n_1) @ (n_1, k / n_1) product, then
    one row-wise contraction per further dimension.  Otherwise theta_k
    K(xi_k, x) = (-1)^N theta_k / prod_i (x_i - xi_ki), so this is the
    network's sum with shifts -xi, eps 0 and weights (-1)^N theta (sign flips
    are exact): the same `kernel_sum` that `model.predict` runs.
    """
    X = as_inputs(xs)
    grid = _tensor_grid(exp.xi)
    if grid is None:
        return kernel_sum(X, -exp.xi, 0.0, (-1) ** exp.xi.shape[1] * exp.theta)
    nodes, flat = grid
    W = np.empty(len(flat), dtype=complex)
    W[flat] = exp.theta
    W = W.reshape(len(nodes[0]), -1)
    out = np.empty(len(X), dtype=complex)
    for rows, factors, diffs in _factor_rows(X, nodes):
        with np.errstate(over="ignore", invalid="ignore"):
            o = factors[0] @ W
            for f in factors[1:]:
                o = np.einsum("rj,rjk->rk", f, o.reshape(len(f), f.shape[1], -1))
        if not np.isfinite(o).all():
            _raise_non_finite(diffs)
        out[rows] = o[:, 0]
    return out


def _khatri_rao(factors, out):
    """Write the row-wise Khatri-Rao product of factors, (rows, n_i) each,
    into out (rows, prod n_i): out[r, flat(j)] = prod_i factors[i][r, j_i],
    multiplied left to right, the last dimension fastest."""
    acc = factors[0]
    for f in factors[1:-1]:
        acc = (acc[:, :, None] * f[:, None, :]).reshape(len(acc), -1)
    last = factors[-1]
    np.multiply(acc[:, :, None], last[:, None, :],
                out=out.reshape(len(out), acc.shape[1], last.shape[1]))


def _back_substitute(U, b):
    """x with U x = b for an upper-triangular U (k, k), from the bottom in
    diagonal blocks of _SOLVE_BLOCK: each block is one small solve against
    b minus the matrix-vector product with the x already found.  Partial
    pivoting never swaps rows of a triangular block, so each small solve is
    a back-substitution; a zero pivot raises LinAlgError."""
    k = len(b)
    x = np.empty_like(b)
    for lo in range((k - 1) // _SOLVE_BLOCK * _SOLVE_BLOCK, -1, -_SOLVE_BLOCK):
        hi = min(lo + _SOLVE_BLOCK, k)
        x[lo:hi] = np.linalg.solve(U[lo:hi, lo:hi], b[lo:hi] - U[lo:hi, hi:] @ x[hi:])
    return x


def _solve_stacked(Af, k):
    """phi minimising |H phi - f|^2 + ridge |phi|^2 from the stacked buffer
    Af = [[H, f], [sqrt(ridge) I, 0]] of shape (n + k, k + 1).

    R = qr(Af, mode="r") reduces the problem to the k x k triangular system
    R[:k, :k] phi = R[:k, k], solved by `_back_substitute`: no Q, no singular
    vectors.  For ridge > 0 the stacked design has full column rank, so
    R[:k, :k] is nonsingular.  A zero in the last ridge row means ridge 0;
    then H itself must have full column rank, so n >= k: SingularSystem when
    R[:k, :k]'s smallest singular value is within numpy's matrix_rank
    tolerance of 0, or when the solve fails or is not finite.
    """
    ridge_zero = Af[-1, k - 1] == 0
    R = np.linalg.qr(Af, mode="r")[:k]
    try:
        if ridge_zero:
            # numpy's matrix_rank tolerance: rounding leaves a repeated column's s near 0
            s = np.linalg.svd(R[:, :k], compute_uv=False)
            if s.min() <= s.max() * k * np.finfo(float).eps:
                raise SingularSystem("design matrix is rank-deficient with ridge 0")
        phi = _back_substitute(R[:, :k], R[:, k])
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"least-squares solve failed: {exc}") from None
    if not np.isfinite(phi).all():
        raise SingularSystem("regularized solve produced non-finite weights")
    return phi


def fit_expansion_least_squares(samples, points, ridge: float = DEFAULT_RIDGE
                                ) -> KernelExpansion:
    """Weights minimizing sum_j |sum_k theta_k K(xi_k, x_j) - f_j|^2 + ridge*|theta|^2.

    The ridge problem is ordinary least squares on the stacked design
    [A; sqrt(ridge) I] with target [f; 0] (Tikhonov regularization as an
    augmented system), so one (n + k, k + 1) buffer holds [A | f] in its top
    n rows, filled block by block, and [sqrt(ridge) I | 0] in its bottom k;
    `_solve_stacked` solves it.  Cauchy-kernel design matrices are too
    ill-conditioned for explicit normal equations, which would square the
    condition number.

    On a tensor grid of centres (`_tensor_grid`) each block of rows is the
    row-wise Khatri-Rao product of the per-dimension factors, written
    straight into the buffer with its columns in grid order; the solve's
    weights are then read back in the order of points (a column permutation
    leaves the ridge problem unchanged).  Otherwise the design is (-1)^N H
    for the kernel blocks H of `kernel_rows` (shifts -xi, eps 0), so the fit
    solves for (-1)^N theta against H and flips the sign at the end.

    With ridge 0 the design itself must have full column rank, so n >= k,
    else SingularSystem.  samples is a sequence of (x, f(x)).
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    points = np.asarray(points, dtype=complex)
    if points.ndim == 1:
        points = points[:, None]
    if len(points) < 1:
        raise ValueError("need at least one boundary point")
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be nonnegative and finite")

    xs = np.array([np.atleast_1d(np.asarray(s[0], dtype=float)) for s in samples])
    n, k = len(xs), len(points)
    Af = np.zeros((n + k, k + 1), dtype=complex)
    top = Af[:n]  # the last block's slice must not reach the ridge rows
    top[:, k] = [complex(s[1]) for s in samples]
    np.fill_diagonal(Af[n:, :k], np.sqrt(ridge))
    grid = _tensor_grid(points)
    if grid is None:
        # the row sums of H carry the finiteness check of each block
        for rows, _, hidden in kernel_rows(xs, -points, 0.0, np.ones(k)):
            top[rows, :k] = hidden
        return KernelExpansion(points, (-1) ** points.shape[1] * _solve_stacked(Af, k))
    nodes, flat = grid
    for rows, factors, diffs in _factor_rows(xs, nodes):
        block = top[rows, :k]
        with np.errstate(over="ignore", invalid="ignore"):
            _khatri_rao(factors, block)
            if not np.isfinite(block.sum(axis=1)).all():
                _raise_non_finite(diffs)
    return KernelExpansion(points, _solve_stacked(Af, k)[flat])
