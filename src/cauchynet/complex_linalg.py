"""Scalar complex arithmetic and deterministic random number generation.

Complex vectors and matrices throughout the library are plain numpy
``complex128`` arrays (row-major); this module provides the complex
normal draw, the finiteness check, the shape-checked copy into a weight
view, the coercion of real inputs to an (n, m) matrix, and the seeded
generator everything else draws from.

The generator is splitmix64 with Box-Muller normals.  The algorithm is
spelled out in full (no hidden library state) so that a seed produces the
same stream on any platform or in any reimplementation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFiniteError

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64 output scrambler, for an int or a uint64 array.

    The mask is a no-op on uint64 arrays, whose products already wrap.
    """
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive a decorrelated child seed from a root seed and integer tags.

    Used for per-epoch shuffle streams and per-cell sweep streams so that
    consumption in one stream never perturbs another.
    """
    s = seed & MASK64
    for t in tags:
        s = _mix64((s ^ (((t + 1) * _GOLDEN) & MASK64)) & MASK64)
    return s


class Rng:
    """Deterministic 64-bit generator (splitmix64).

    The state advances by the golden-gamma increment and is scrambled on
    output.  Identical seeds replay identical streams; there is no global
    state.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        return _mix64(self.state)

    def _next_u64s(self, n: int) -> np.ndarray:
        """The next n next_u64() outputs as a uint64 array, in one wrapping pass."""
        states = np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        if n:
            self.state = int(states[-1])
        return _mix64(states)

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniform_in(self, lo: float, hi: float, n: int | None = None):
        """lo + (hi - lo) * uniform(); with n, the next n such draws as an array."""
        if n is None:
            return lo + (hi - lo) * self.uniform()
        return lo + (hi - lo) * ((self._next_u64s(n) >> np.uint64(11)) * (1.0 / (1 << 53)))

    def _box_muller(self):
        # (u1 + 1) * 2^-53 lies in (0, 1], keeping log(u1) finite.
        u1 = ((self.next_u64() >> 11) + 1) * (1.0 / (1 << 53))
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        return r, math.cos(2.0 * math.pi * u2), math.sin(2.0 * math.pi * u2)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of range(n) as an int64 array.

        For i = n - 1 down to 1, entry i swaps with entry next_u64() %
        (i + 1).  The n - 1 draws are computed at once in wrapping uint64
        arithmetic; only the swaps run in Python.
        """
        idx = list(range(n))
        if n > 1:
            draws = (self._next_u64s(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
            for i, j in zip(range(n - 1, 0, -1), draws):
                idx[i], idx[j] = idx[j], idx[i]
        return np.asarray(idx, dtype=np.int64)


def normal_complex(rng: Rng, sigma: float, n: int | None = None):
    """Complex sample with independent N(0, sigma^2) real and imaginary parts.

    Consumes exactly one Box-Muller pair (two uniforms).  With n, returns
    the next n such samples as a complex array, bit-equal to n single draws:
    the 2n uniforms come from one uint64 pass, and each log, cos and sin is
    Python's `math` one, whose results numpy's vector loops are not bound to
    match.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n is None:
        r, c, s = rng._box_muller()
        return complex(r * c * sigma, r * s * sigma)
    bits = (rng._next_u64s(2 * n) >> np.uint64(11)).reshape(n, 2)
    u1 = ((bits[:, 0] + np.uint64(1)) * (1.0 / (1 << 53))).tolist()
    turns = (2.0 * math.pi * (bits[:, 1] * (1.0 / (1 << 53)))).tolist()
    r = np.sqrt(np.array([-2.0 * math.log(u) for u in u1]))
    out = np.empty(n, dtype=complex)
    out.real = r * np.array([math.cos(t) for t in turns]) * sigma
    out.imag = r * np.array([math.sin(t) for t in turns]) * sigma
    return out


def require_finite(arr, what: str):
    """Raise NonFiniteError unless every component of arr is finite."""
    a = np.asarray(arr)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"non-finite values in {what}")
    return a


def copy_into(view: np.ndarray, value, what: str) -> None:
    """Copy value into the weight view `view`; a shape mismatch is a ValueError."""
    value = np.asarray(value, dtype=view.dtype)
    if value.shape != view.shape:
        raise ValueError(f"{what} must have shape {view.shape}")
    view[...] = value


def as_inputs(X, what: str = "inputs") -> np.ndarray:
    """Coerce inputs to an (n, m) float array; 1-D input becomes m=1, any
    other shape but (n, m) is a ValueError naming `what`."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise ValueError(f"{what} must be (n,) or (n, m), got shape {X.shape}")
    return X
