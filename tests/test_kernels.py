"""The batch kernels against an extended-precision reference.

The training kernels each follow one rounding rule: `forward_batch` multiplies
its m shifted (n, h) columns left to right with complex `*` and divides
1.0 by the product once; `predict` runs it over EVAL_BLOCK-row blocks.
`batch_gradient` divides nothing: with cg = (2/n) ((y - y_true) - i lam e)
it takes dC = conj(cg @ hidden) and dB[:, i] = -conj(C) * conj(cg @ P_i),
where P_i is hidden * hidden times the other shifted columns, left to
right.  The byte test pins both rules, so a rewrite that rounds
differently (and would change trained models) fails it.  The accuracy
test compares every kernel output with the direct formula evaluated in
np.clongdouble.
"""

import tracemalloc
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet.complex_linalg import Rng
from cauchynet.errors import NonFiniteError, PoleEncountered
from cauchynet.grad import GradientWork, batch_gradient, cauchynet_trainable
from cauchynet.kernel import (EVAL_BLOCK, KernelExpansion, evaluate_expansion_grid,
                              kernel_sum)
from cauchynet.model import (CauchyNetModel, forward_batch, init_elliptical,
                             predict, split_parameters)

EPS = np.finfo(float).eps
# Every error below is scaled to eps and must stay within KERNEL_TOL.  The
# worst values measured over 30 seeds of the grid were 3.0 (hidden), 2.5
# (o, predict), 1.9 (dB), 1.5 (dC) and 4.6 (against the oracle).
KERNEL_TOL = 8.0


def over_grid(test):
    """Parametrize a test over n in {1, 32, 64, 65, 1069} x m x h."""
    for name, values in (("n", [1, 32, 64, 65, 1069]), ("m", [1, 2, 3]),
                         ("h", [1, 37, 128])):
        test = pytest.mark.parametrize(name, values)(test)
    return test


def extended_reference(model, X, y_true, lam):
    """The direct (n, h, m) formulas in np.clongdouble.

    Returns hidden, o, the scale of o (sum_k |C_k hidden_k| per row) and
    the per-sample terms of dC and dB with their scales.  A gradient term
    is go * conj(do/dtheta), and go = 2 (y - y_true) + 2i lam e inherits
    the rounding error of o, so each term's scale is
    (|go| + 2 (1 + lam) scale_o) |do/dtheta|.
    """
    S = X[:, None, :].astype(np.longdouble) + (model.B.astype(np.clongdouble)
                                                + model.epsilon)[None]
    hidden = 1 / np.prod(S, axis=2)
    terms = model.C.astype(np.clongdouble) * hidden
    o = terms.sum(axis=1)
    o_scale = np.abs(terms).sum(axis=1)
    go = 2 * (o.real - y_true) + 2j * lam * o.imag
    weight = np.abs(go) + 2 * (1 + lam) * o_scale
    dodB = -terms[:, :, None] / S
    dC_terms, dC_scale = go[:, None] * np.conj(hidden), weight[:, None] * np.abs(hidden)
    dB_terms = go[:, None, None] * np.conj(dodB)
    dB_scale = weight[:, None, None] * np.abs(dodB)
    return (hidden, o, o_scale, (dC_terms.mean(0), dC_scale.mean(0)),
            (dB_terms.mean(0), dB_scale.mean(0)))


def assert_within(value, ref, scale, what):
    err = float(np.max(np.abs(value - ref) / scale, initial=0.0)) / EPS
    assert err <= KERNEL_TOL, f"{what}: error {err:.2f} eps"


def random_case(h, m, n, seed):
    rng = Rng(seed)
    model = init_elliptical(h, m, rng, 1.2, 0.3, epsilon=1e-8)
    X = np.array([[rng.uniform_in(-1, 1) for _ in range(m)] for _ in range(n)])
    y = np.array([rng.uniform_in(-1, 1) for _ in range(n)])
    return model, X, y


@over_grid
def test_kernels_match_reference_bytes(h, m, n):
    model, X, y = random_case(h, m, n, seed=1000 * h + 10 * m + n)
    o, hidden, shifted = forward_batch(model, X)
    assert len(shifted) == m and all(s.shape == (n, h) for s in shifted)
    columns = [X[:, i, None] + model.B[:, i] + model.epsilon for i in range(m)]
    assert hidden.tobytes() == (1.0 / reduce(mul, columns)).tobytes()
    assert o.tobytes() == (hidden @ model.C).tobytes()
    blocks = [forward_batch(model, X[lo:lo + EVAL_BLOCK])[0]
              for lo in range(0, n, EVAL_BLOCK)]
    yp, ep = predict(model, X)
    assert (yp + 1j * ep).tobytes() == np.concatenate(blocks).tobytes()
    lam = 0.1
    dB, dC = split_parameters(batch_gradient(model, X, y, lam)[1], h, m)
    cg = (2 / n) * ((o.real - y) - 1j * lam * o.imag)
    assert dC.tobytes() == np.conj(cg @ hidden).tobytes()
    for i in range(m):
        P = reduce(mul, [s for j, s in enumerate(shifted) if j != i], hidden * hidden)
        assert dB[:, i].tobytes() == (-np.conj(model.C) * np.conj(cg @ P)).tobytes()


def fresh_array_kernels(model, X, y, lam):
    """(o, hidden, shifted, g) by the fresh-array formulas: one new array per
    column and per operation, 1.0 / prod, and reduce(mul, others, hidden *
    hidden) for P_i.  The kernels write into one buffer per call instead
    and must give these bytes."""
    shifted = [X[:, i, None] + model.B[:, i] + model.epsilon for i in range(model.m)]
    prod = shifted[0]
    for s in shifted[1:]:
        prod = prod * s
    hidden = 1.0 / prod
    o = hidden @ model.C
    g = np.empty_like(model.params)
    dB, dC = split_parameters(g, model.h, model.m)
    cg = (2.0 / len(X)) * ((o.real - y) - 1j * lam * o.imag)
    dC[...] = np.conj(cg @ hidden)
    hh = hidden * hidden
    for i in range(model.m):
        others = (s for j, s in enumerate(shifted) if j != i)
        dB[:, i] = -np.conj(model.C) * np.conj(cg @ reduce(mul, others, hh))
    return o, hidden, shifted, g


@pytest.mark.parametrize("n", [1, 22, 32])
@pytest.mark.parametrize("h", [1, 37, 1224])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_per_call_buffer_matches_fresh_arrays(h, m, n):
    model, X, y = random_case(h, m, n, seed=100 * h + 10 * m + n)
    o_ref, hidden_ref, shifted_ref, g_ref = fresh_array_kernels(model, X, y, 0.1)
    o, hidden, shifted = forward_batch(model, X)
    assert o.tobytes() == o_ref.tobytes()
    assert hidden.tobytes() == hidden_ref.tobytes()
    assert all(s.tobytes() == r.tobytes() for s, r in zip(shifted, shifted_ref, strict=True))
    assert batch_gradient(model, X, y, 0.1)[1].tobytes() == g_ref.tobytes()


@pytest.mark.parametrize("n", [1, 64, 65, 1069])
@pytest.mark.parametrize("h", [37, 1224])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_predict_matches_fresh_array_blocks(h, m, n):
    model, X, y = random_case(h, m, n, seed=100 * h + 10 * m + n)
    o_ref = np.concatenate([fresh_array_kernels(model, X[lo:lo + EVAL_BLOCK],
                                                y[lo:lo + EVAL_BLOCK], 0.0)[0]
                            for lo in range(0, n, EVAL_BLOCK)])
    yp, ep = predict(model, X)
    assert yp.tobytes() == o_ref.real.tobytes()
    assert ep.tobytes() == o_ref.imag.tobytes()


def test_a_second_call_leaves_the_first_results_unchanged():
    model, X, _ = random_case(37, 2, 2 * EVAL_BLOCK + 5, seed=11)
    X2 = X[::-1] * 0.5
    first = forward_batch(model, X)
    kept = [a.copy() for a in (first[0], first[1], *first[2])]
    forward_batch(model, X2)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip((first[0], first[1], *first[2]), kept, strict=True))
    y1, e1 = predict(model, X)
    kept = y1.copy(), e1.copy()
    y2, e2 = predict(model, X2)
    assert y1.tobytes() == kept[0].tobytes() and e1.tobytes() == kept[1].tobytes()
    assert not any(np.shares_memory(a, b) for a in (y1, e1) for b in (y2, e2))
    s1 = kernel_sum(X, model.B, model.epsilon, model.C)
    kept = s1.copy()
    kernel_sum(X2, model.B, model.epsilon, model.C)
    assert s1.tobytes() == kept.tobytes()


@pytest.mark.parametrize("m,column", [(2, 0), (2, 1), (3, 1), (3, 2)])
def test_exact_pole_in_any_column_raises_pole(m, column):
    """The product accumulates in hidden's slot, so the columns stay intact
    for the pole scan."""
    B = np.full((2, m), 0.3j)
    B[1, column] = -0.5
    model = CauchyNetModel(2, m, 0.0, B, [1.0, 2.0])
    X = np.linspace(-1.0, 1.0, 9)[:, None].repeat(m, axis=1)
    X[4, column] = 0.5                    # x + B_1,column == 0
    with pytest.raises(PoleEncountered):
        forward_batch(model, X)
    with pytest.raises(PoleEncountered):
        predict(model, X)


@pytest.mark.parametrize("m,shift", [(2, 1e-160j), (3, 1e-110j)])
def test_vanishing_product_without_a_pole_raises_non_finite(m, shift):
    """Every column is nonzero but their product underflows to 0 or below
    the smallest normal, so 1.0 / prod overflows."""
    model = CauchyNetModel(1, m, 0.0, np.full((1, m), shift), [1e10])
    with pytest.raises(NonFiniteError) as exc:
        forward_batch(model, np.zeros((3, m)))
    assert not isinstance(exc.value, PoleEncountered)


def test_batch_gradient_allocates_one_kernel_buffer():
    """A warmed m = 1 call at the widest sweep shape allocates the forward
    pass's (2, n, h) buffer and (h,)-sized vectors, no per-op (n, h)
    temporary: the fresh-array kernels peaked at ~3.2 (n, h) arrays."""
    n, h = 32, 1224
    model, X, y = random_case(h, 1, n, seed=5)
    batch_gradient(model, X, y, 0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch_gradient(model, X, y, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * n * h * 16, f"peak {peak / (n * h * 16):.2f} (n, h) arrays"


@pytest.mark.parametrize("m", [1, 2])
def test_batch_gradient_with_a_workspace_allocates_no_kernel_array(m):
    """A warmed call with a workspace writes every (n, h) array into it:
    what it allocates is (m, h)-sized and smaller."""
    n, h = 32, 1224
    model, X, y = random_case(h, m, n, seed=5)
    work = GradientWork(h, m, n)
    batch_gradient(model, X, y, 0.1, work)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        batch_gradient(model, X, y, 0.1, work)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * h * 16, f"peak {peak / (n * h * 16):.2f} (n, h) arrays"


@pytest.mark.parametrize("h", [1, 37])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_reused_workspace_gives_the_bytes_of_a_fresh_one(h, m):
    """Calls on 32, 7 and 32 rows through one workspace, and through the
    trainable's callable after a 5-row first call, give the bytes of calls
    that make their own."""
    model, X, y = random_case(h, m, 32, seed=10 * h + m)
    work = GradientWork(h, m, 32)
    gradient = cauchynet_trainable(model).batch_gradient
    gradient(model, X[:5], y[:5], 0.1)
    for rows in (slice(None), slice(3, 10), slice(None)):
        lv, g = batch_gradient(model, X[rows], y[rows], 0.1)
        for reused in (batch_gradient(model, X[rows], y[rows], 0.1, work),
                       gradient(model, X[rows], y[rows], 0.1)):
            assert reused[0] == lv
            assert reused[1].tobytes() == g.tobytes()


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                    reason="long double has no more precision than double here")
@over_grid
def test_kernels_match_clongdouble_reference(h, m, n):
    model, X, y = random_case(h, m, n, seed=1000 * h + 10 * m + n)
    hidden_ref, o_ref, o_scale, (dC_ref, dC_scale), (dB_ref, dB_scale) = \
        extended_reference(model, X, y, 0.1)
    o, hidden, _ = forward_batch(model, X)
    assert_within(hidden, hidden_ref, np.abs(hidden_ref), "hidden")
    assert_within(o, o_ref, o_scale, "o")
    yp, ep = predict(model, X)
    assert_within(yp + 1j * ep, o_ref, o_scale, "predict")
    _, g = batch_gradient(model, X, y, 0.1)
    dB, dC = split_parameters(g, h, m)
    assert_within(dC, dC_ref, dC_scale, "dC")
    assert_within(dB, dB_ref, dB_scale, "dB")


@pytest.mark.parametrize("h", [1, 37, 128])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_network_is_a_cauchy_kernel_expansion(h, m):
    """o = sum_k (-1)^m C_k prod_i 1/(xi_ki - x_i) with centres xi = -(B + eps)."""
    model, X, _ = random_case(h, m, 200, seed=31 * h + m)
    expansion = KernelExpansion(-(model.B + model.epsilon), (-1) ** m * model.C)
    yp, ep = predict(model, X)
    _, hidden, _ = forward_batch(model, X)
    assert_within(evaluate_expansion_grid(expansion, X), yp + 1j * ep,
                  np.abs(model.C * hidden).sum(axis=1), "oracle")


@pytest.mark.parametrize("n", [1, 64, 65, 1069])
@pytest.mark.parametrize("h", [1, 37, 128])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_predict_and_oracle_share_one_kernel(h, m, n):
    """With epsilon = 0 the expansion with centres -B and weights (-1)^m C
    has the network's shifts and weights exactly, so its bytes are predict's."""
    model, X, _ = random_case(h, m, n, seed=7 * h + m + n)
    model = CauchyNetModel(h, m, 0.0, model.B, model.C)
    yp, ep = predict(model, X)
    vals = evaluate_expansion_grid(KernelExpansion(-model.B, (-1) ** m * model.C), X)
    assert yp.tobytes() == vals.real.tobytes()
    assert ep.tobytes() == vals.imag.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 200, 1603])
def test_permutation_equals_shuffle_of_range(n):
    for seed in (0, 7, 99, 2 ** 64 - 1):
        a, b = Rng(seed), Rng(seed)
        # reference Fisher-Yates over range(n), one draw per swap
        order = list(range(n))
        for i in range(n - 1, 0, -1):
            j = a.next_u64() % (i + 1)
            order[i], order[j] = order[j], order[i]
        perm = b.permutation(n).tolist()
        assert perm == order
        assert sorted(perm) == list(range(n))
        assert n < 50 or perm != list(range(n))
        assert b.state == a.state
        assert b.next_u64() == a.next_u64()


def test_predict_raises_on_a_pole_in_a_later_block():
    model = CauchyNetModel(2, 1, 0.0, np.array([[-0.5 + 0.0j], [0.3j]]),
                           np.array([1.0 + 0j, 2.0 + 0j]))
    X = np.linspace(-1.0, 1.0, 3 * EVAL_BLOCK)[:, None]
    X[EVAL_BLOCK + 5] = 0.5            # x + B_00 == 0 in the second block
    with pytest.raises(PoleEncountered):
        predict(model, X)
    X[EVAL_BLOCK + 5] = 0.25
    y, _ = predict(model, X)
    assert np.all(np.isfinite(y))


def test_forward_overflow_raises_non_finite():
    model = CauchyNetModel(1, 2, 0.0, np.array([[1e-160j, 1e-160j]]),
                           np.array([1e10 + 0j]))
    with pytest.raises(NonFiniteError) as exc:
        forward_batch(model, np.zeros((3, 2)))
    assert not isinstance(exc.value, PoleEncountered)
    with pytest.raises(NonFiniteError):
        predict(model, np.zeros((3, 2)))


def test_forward_sum_overflow_raises_non_finite():
    """hidden = -1e300 is finite, but C * hidden overflows in o."""
    model = CauchyNetModel(1, 2, 0.0, np.array([[1e-150j, 1e-150j]]),
                           np.array([1e10 + 0j]))
    with pytest.raises(NonFiniteError) as exc:
        forward_batch(model, np.zeros((3, 2)))
    assert not isinstance(exc.value, PoleEncountered)
    with pytest.raises(NonFiniteError):
        predict(model, np.zeros((3, 2)))


def test_gradient_overflow_near_a_pole_raises_non_finite():
    """hidden = 1e160 stays finite, but hidden * hidden in dB overflows."""
    model = CauchyNetModel(1, 1, 0.0, [[1e-160j]], [1e-200])
    with pytest.raises(NonFiniteError) as exc:
        batch_gradient(model, np.zeros((1, 1)), [1.0], 0.1)
    assert not isinstance(exc.value, PoleEncountered)


def test_pole_in_a_training_batch_raises_from_the_forward_pass():
    model = CauchyNetModel(2, 1, 0.0, [[-0.5 + 0.0j], [0.3j]], [1.0, 2.0])
    X = np.linspace(-1.0, 1.0, 32)[:, None]
    X[7] = 0.5                            # x + B_00 == 0
    with pytest.raises(PoleEncountered):
        batch_gradient(model, X, np.zeros(32), 0.1)


def test_forward_batch_rejects_wrong_input_width():
    model, X, _ = random_case(4, 2, 5, seed=3)
    with pytest.raises(ValueError):
        forward_batch(model, X[:, :1])


@settings(max_examples=40, deadline=None)
@given(h=st.integers(1, 9), m=st.integers(1, 3), n=st.integers(1, 12),
       seed=st.integers(0, 2 ** 32), lam=st.sampled_from([0.0, 0.1, 1.0]))
def test_batch_and_single_sample_paths_agree(h, m, n, seed, lam):
    model, X, y = random_case(h, m, n, seed)
    o, hidden, _ = forward_batch(model, X)
    lv, grads = batch_gradient(model, X, y, lam)
    acc = np.zeros_like(grads)
    for i in range(n):
        o1, hidden1, _ = forward_batch(model, X[i:i + 1])
        np.testing.assert_allclose(o1[0], o[i], rtol=1e-13, atol=1e-300)
        np.testing.assert_allclose(hidden1[0], hidden[i], rtol=1e-13, atol=1e-300)
        acc += batch_gradient(model, X[i:i + 1], y[i:i + 1], lam)[1]
    np.testing.assert_allclose(grads, acc / n, rtol=1e-10, atol=1e-12)
