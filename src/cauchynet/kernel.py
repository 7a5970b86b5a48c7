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
`cauchy_block` computes it, and its weighted sum, for a block of rows.
Evaluation and fit each have two paths, chosen by one rule.  When the
centres are the full tensor product of N >= 2 per-dimension node sets, as
`quadrature_expansion` makes them, and the points (the samples of a fit or
the points an expansion is evaluated at) are a full tensor grid too, one
small Cauchy matrix per dimension (`_cauchy_factors`) carries the whole
kernel: the fit is solved from their SVDs (`_solve_kronecker`) and the
evaluation is their mode products with the weight tensor
(`_mode_products`).  Every other input, like the network's forward pass,
`predict` and the scalar activation, goes through `cauchy_block`
EVAL_BLOCK rows at a time (`kernel_sum`, `kernel_rows`).  No (n, k, N)
array is ever formed.  `_tensor_grid` recognises a grid from the inputs
alone, in O(k): only a C-order layout (last dimension fastest, as the
quadrature's centres and `np.meshgrid(..., indexing="ij")` points come)
is a grid, read in its own node order with no index map; the points are
searched only when the centres are a grid.
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


def _as_centres(xi, what):
    """A complex (k, N) copy of xi, (k,) read as N = 1; any other shape is a
    ValueError naming `what`."""
    xi = np.array(xi, dtype=complex)
    if xi.ndim == 1:
        xi = xi[:, None]
    if xi.ndim != 2:
        raise ValueError(f"{what} must be (k,) or (k, N), got shape {xi.shape}")
    return xi


@dataclass
class KernelExpansion:
    xi: np.ndarray      # complex (k, N) boundary points
    theta: np.ndarray   # complex (k,) weights

    def __post_init__(self):
        # copies, so that a write to the caller's arrays cannot move the values
        self.xi = _as_centres(self.xi, "xi")
        self.theta = np.array(self.theta, dtype=complex)
        if self.theta.ndim != 1:
            raise ValueError(f"theta must be (k,), got shape {self.theta.shape}")
        if len(self.xi) != len(self.theta):
            raise ValueError("points and weights differ in length")
        if not np.isfinite(self.xi).all():
            raise ValueError("expansion centres must be finite")
        if not np.isfinite(self.theta).all():
            raise ValueError("expansion weights must be finite")
        # read-only, so that a write to them raises at once instead of
        # slipping past the checks above
        self.xi.setflags(write=False)
        self.theta.setflags(write=False)


def cauchy_block(X, shifts, eps, weights, work=None):
    """(o, hidden, shifted) with hidden = 1 / prod_i (x_i + shifts_:i + eps)
    and o = hidden @ weights.

    X is a real (rows, m) block, shifts a complex (h, m) array, eps a real
    offset and weights a complex (h,) vector.  shifted is the list of the m
    (rows, h) columns shifts[:, i] + X[:, i, None] + eps, all m built at
    once by three whole-buffer operations (addition commutes, so these are
    the bytes of X[:, i, None] + shifts[:, i] + eps); they are multiplied
    left to right with complex `*` and 1.0 is divided by the product once.
    The columns and hidden are the m + 1 leading (rows, h) slices of one
    complex (m + 1, >= rows, h) buffer, `work`, allocated here when not
    given; every step writes into it in place, so a call makes no other
    (rows, h) array.  o is always a fresh array.  The one
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
    # one (rows, 1) real column added to an (h,) complex row per column runs
    # ~3x slower per element than a same-shape complex operation
    columns = work[:m, :rows]
    columns[...] = shifts.T[:, None, :]
    np.add(columns, X.T[:, :, None], out=columns)
    columns += eps
    shifted = list(columns)
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


def ellipse_mesh(a: float, b: float, nodes: int = 64) -> BoundaryMesh:
    """Equal-parameter trapezoidal mesh of the ellipse a*cos t + i b*sin t;
    `BoundaryMesh([m.nodes[0] + c], m.increments)` is mesh m moved to centre c."""
    if a <= 0 or b <= 0:
        raise ValueError("semi-axes must be positive")
    if nodes < 4:
        raise ValueError("need at least 4 nodes")
    t = 2 * np.pi * np.arange(nodes) / nodes
    zeta = a * np.cos(t) + 1j * b * np.sin(t)
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
    """The per-dimension node arrays, nodes[i] in the order the points hold
    them, when the k points xi (k, N) (centres, sample inputs or evaluation
    points) are every point of a tensor grid with N >= 2 dimensions of at
    least 2 nodes each, laid out in C order (last dimension fastest, as
    `quadrature_expansion` and `np.meshgrid(..., indexing="ij")` lay them
    out); else None.  Point c is then grid point c, so values and weights
    reshape to the grid with no index map.  Other orders (shuffled, reversed
    columns, meshgrid's default "xy") take `kernel_sum` or the dense solve.
    A dimension of one node factors nothing out, and leaving it to
    `kernel_sum` keeps a one-centre expansion equal to `predict` byte for
    byte.

    Read in O(k) without sorting: column i's first change gives its run
    length n_{i+1} ... n_N, so the shape; every point must then hold, bit
    for bit, its axes' values at its place in the n_1 x ... x n_N layout (a
    -0.0 where the axis holds 0.0 does not).  Equal axis values keep the
    factorisation exact and are allowed, but one that repeats an axis's
    first value at once lengthens the first run, so the points read as a
    grid of another shape or as none.  Callers refuse non-finite points
    first.
    """
    k, N = xi.shape
    if N < 2 or k == 0 or xi.dtype not in (np.float64, np.complex128):
        return None
    # a valid shape has n_i >= 2, so each column changes within its first half
    strides = [k, *(int((xi[:k // 2 + 1, i] != xi[0, i]).argmax()) for i in range(N))]
    if 0 in strides:
        return None
    shape = [a // b for a, b in zip(strides, strides[1:])]
    if min(shape) < 2 or math.prod(shape) != k:
        return None
    # each column's bits, one word per real part or imaginary part
    if xi.strides[1] != xi.itemsize:
        xi = np.ascontiguousarray(xi)
    words = xi.view(np.uint64).reshape(k, N, -1)
    for i, n in enumerate(shape):
        rows = slice(0, strides[i], strides[i + 1])
        along = [1] * N
        along[i] = n
        for w in range(words.shape[2]):
            if not (words[:, i, w].reshape(shape) == words[rows, i, w].reshape(along)).all():
                return None
    return [xi[0:strides[i]:strides[i + 1], i] for i in range(N)]


def _mode_products(T, mats):
    """T multiplied along each axis i by mats[i] (new_i, T.shape[i]): each
    step is one matrix product on the leading axis, which then moves last,
    so after N steps the axes are back in order."""
    for M in mats:
        P = (M @ T.reshape(T.shape[0], -1)).reshape(-1, *T.shape[1:])
        T = P.transpose(*range(1, P.ndim), 0)
    return T


def _cauchy_factors(x_nodes, c_nodes):
    """The per-dimension Cauchy matrices F_i = 1 / (c_i - x_i[:, None]),
    (n_i, k_i), between the node sets of a tensor grid of points and one of
    centres: K at grid point (j_1, ..., j_N) and centre (l_1, ..., l_N) is
    the product of F_i[j_i, l_i] over i.  Both grids hold every
    combination of their nodes, so the largest |K| is the product of each
    F_i's largest entry; when that is not finite, PoleEncountered for an
    exact zero difference, NonFiniteError otherwise.
    """
    diffs = [c[None, :] - x[:, None] for x, c in zip(x_nodes, c_nodes)]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        factors = [1.0 / d for d in diffs]
        if not np.isfinite(math.prod(np.abs(F).max() for F in factors)):
            _raise_non_finite(diffs)
    return factors


def evaluate_expansion_grid(exp: KernelExpansion, xs) -> np.ndarray:
    """sum_k theta_k K(xi_k, x) at each of an (n,) or (n, N) array of points.

    When the centres and the points are both full tensor grids
    (`_tensor_grid`, N >= 2, each in C order), theta reshaped is the
    n_1 x ... x n_N weight tensor W, and the mode products of W with the
    per-dimension Cauchy matrices of `_cauchy_factors` are the values, in
    the points' order as they come: the rule by which
    `fit_expansion_least_squares` chooses `_solve_kronecker`.  Otherwise
    theta_k K(xi_k, x) = (-1)^N theta_k / prod_i (x_i - xi_ki), so this is
    the network's sum with shifts -xi, eps 0 and weights (-1)^N theta (sign
    flips are exact): the same `kernel_sum` that `model.predict` runs.
    Non-finite points raise ValueError.
    """
    X = as_inputs(xs, "evaluation points")
    if not np.isfinite(X).all():
        raise ValueError("evaluation points must be finite")
    N = exp.xi.shape[1]
    centre_grid = _tensor_grid(exp.xi)
    point_grid = _tensor_grid(X) if centre_grid is not None and X.shape[1] == N else None
    if centre_grid is None or point_grid is None:
        return kernel_sum(X, -exp.xi, 0.0, (-1) ** N * exp.theta)
    W = exp.theta.reshape([len(v) for v in centre_grid])
    factors = _cauchy_factors(point_grid, centre_grid)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _mode_products(W, factors).ravel()
    if not np.isfinite(values).all():
        raise NonFiniteError("kernel sum overflowed")
    return values


def _ridge_factors(s, ridge, k):
    """The filter factors s / (s^2 + ridge), computed as 1 / (s + ridge / s)
    so that s^2 never overflows, for the singular values s (any shape) of a
    design with k columns: with its thin SVD U S V^H, the weights minimising
    |A w - f|^2 + ridge |w|^2 are V diag(factors) U^H f.  Ridge 0 needs full
    column rank: k singular values, the smallest above numpy's matrix_rank
    tolerance max(s) k eps, else SingularSystem."""
    if ridge == 0 and (s.size < k or s.min() <= s.max() * k * np.finfo(float).eps):
        raise SingularSystem("design matrix is rank-deficient with ridge 0")
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (s + ridge / s)


def _solve_kronecker(f, sample_grid, centre_grid, ridge):
    """The weights w minimising |A w - f|^2 + ridge |w|^2 for the Kronecker
    design A = F_1 (x) ... (x) F_N, F_i = 1 / (c_i - s_i[:, None]) of shape
    (n_i, k_i), with the node arrays of `_tensor_grid` for the samples and
    the centres; f and w are in the samples' and the centres' order, which
    are their grids' C order.

    With the thin SVDs F_i = U_i S_i V_i^H, A = (x)U_i (x)S_i (x)V_i^H is a
    thin SVD of A, so W = (x)V_i diag(factors) (x)U_i^H f for the
    `_ridge_factors` of the outer product of the s_i, applied as mode
    products of the n_1 x ... x n_N sample tensor.  A factor holding an
    exact pole, or whose largest entries multiply past the float range,
    raises as a kernel block would.  At ridge 0 the outer product has k
    values only when k_i <= n_i in every dimension.
    """
    svds = [np.linalg.svd(F, full_matrices=False)
            for F in _cauchy_factors(sample_grid, centre_grid)]
    k = math.prod(len(c) for c in centre_grid)
    gain = _ridge_factors(reduce(np.multiply.outer, [s for _, s, _ in svds]), ridge, k)
    Y = f.reshape([len(s) for s in sample_grid])
    Z = _mode_products(Y, [U.conj().T for U, _, _ in svds])
    Z *= gain
    return _mode_products(Z, [Vh.conj().T for _, _, Vh in svds]).ravel()


def _sample_values(samples):
    """The values f(x) of the samples (x, f(x)) as a complex (n,) array, the
    bytes or the exception of np.array(values, dtype=complex): numpy infers
    float64 from float values and casts the array once, where dtype=complex
    converts value by value, 3x slower at 1681 values.  Values that infer no
    number type (strings, None) take dtype=complex itself: a float32 beside
    a string would be read back from its shortest repr.  A value that is no
    scalar is a ValueError."""
    values = [s[1] for s in samples]
    fs = np.array(values)
    fs = fs.astype(complex, copy=False) if fs.dtype.kind in "biufc" else np.array(values, dtype=complex)
    if fs.shape != (len(samples),):
        raise ValueError("each sample value must be a scalar")
    return fs


def fit_expansion_least_squares(samples, points, ridge: float = DEFAULT_RIDGE
                                ) -> KernelExpansion:
    """Weights minimizing sum_j |sum_k theta_k K(xi_k, x_j) - f_j|^2 + ridge*|theta|^2.

    Both paths take the weights from a thin SVD U S V^H of the design, as
    V diag(`_ridge_factors`) U^H f, with one rank rule at ridge 0.  When the
    samples' inputs and the centres are both full tensor grids
    (`_tensor_grid`, N >= 2, each in C order), the design is a Kronecker
    product of per-dimension Cauchy matrices and `_solve_kronecker` takes
    the SVD from theirs, with no (n, k) array and no reordering: the
    centres' order is the weights'.

    Otherwise one (n, k + 1) buffer holds [H | f], H filled block by block
    from the kernel blocks of `kernel_rows` (shifts -xi, eps 0); the design
    is (-1)^N H, so the fit solves for (-1)^N theta against H and flips the
    sign at the end.  Its QR reduces [H | f] to [R | Q^H f] with at most k
    rows, and since H = Q R the thin SVD of the triangle R is H's: no Q and
    no (n, k) singular vectors are formed.  Cauchy-kernel design matrices
    are too ill-conditioned for explicit normal equations, which would
    square the condition number.

    With ridge 0 the design itself must have full column rank, so n >= k,
    else SingularSystem, as is a failed or non-finite solve.  samples is a
    sequence of (x, f(x)): x a real scalar or (N,) sequence, f(x) one real
    or complex scalar (a Python or numpy number, a bool, or a numeric
    string, each read as np.array(values, dtype=complex) reads it).  points
    is a (k,) or (k, N) complex array.  Non-finite inputs, values or
    points, inputs without the centres' N columns, and inputs, values or
    points of any other shape, raise ValueError before any solve.
    """
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    points = _as_centres(points, "points")
    if len(points) < 1:
        raise ValueError("need at least one boundary point")
    if not np.isfinite(points).all():
        raise ValueError("boundary points must be finite")
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be nonnegative and finite")
    xs = as_inputs([s[0] for s in samples], "sample inputs")
    fs = _sample_values(samples)
    if xs.shape[1] != points.shape[1]:
        raise ValueError(f"inputs must have {points.shape[1]} columns, got {xs.shape[1]}")
    if not np.isfinite(xs).all():
        raise ValueError("sample inputs must be finite")
    if not np.isfinite(fs).all():
        raise ValueError("sample values must be finite")

    k, N = points.shape
    centre_grid = _tensor_grid(points)
    sample_grid = _tensor_grid(xs) if centre_grid is not None else None
    try:
        if centre_grid is not None and sample_grid is not None:
            theta = _solve_kronecker(fs, sample_grid, centre_grid, ridge)
        else:
            Hf = np.empty((len(xs), k + 1), dtype=complex)
            Hf[:, k] = fs
            # the row sums of H carry the finiteness check of each block
            for rows, _, hidden in kernel_rows(xs, -points, 0.0, np.ones(k)):
                Hf[rows, :k] = hidden
            R = np.linalg.qr(Hf, mode="r")[:k]
            U, s, Vh = np.linalg.svd(R[:, :k], full_matrices=False)
            gain = _ridge_factors(s, ridge, k)
            theta = (-1) ** N * (Vh.conj().T @ (gain * (U.conj().T @ R[:, k])))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"least-squares solve failed: {exc}") from None
    if not np.isfinite(theta).all():
        raise SingularSystem("regularized solve produced non-finite weights")
    return KernelExpansion(points, theta)
