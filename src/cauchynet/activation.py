"""The inversion activation: a product of shifted complex reciprocals.

For a complex vector z and real offset epsilon the activation is
``prod_i 1/(z_i + epsilon)``: one row of the Cauchy kernel block of
`kernel.cauchy_block`, taken at x = 0 with shifts z.  It is holomorphic
wherever no shifted component vanishes, with, in the scalar case,
derivative ``-1/(z + epsilon)^2 = -act(z)^2``.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleEncountered
from .kernel import cauchy_block

DEFAULT_EPSILON = 1e-8


def cauchy_activation(z, epsilon: float = 0.0) -> complex:
    """Product of reciprocals of the epsilon-shifted components of z.

    Raises PoleEncountered when a shifted component is zero and
    NonFiniteError when the product overflows.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return complex(cauchy_block(np.zeros((1, z.size)), z[None, :], epsilon, [1.0])[1][0, 0])


def cauchy_activation_derivative(z: complex, epsilon: float = 0.0) -> complex:
    """Scalar derivative -1/(z + epsilon)^2."""
    w = np.atleast_1d(np.asarray(z, dtype=complex)) + epsilon
    if w.size != 1:
        raise ValueError("scalar derivative expects a single complex input")
    if w[0] == 0:
        raise PoleEncountered("shifted input is exactly zero")
    return complex(-1.0 / (w[0] * w[0]))
