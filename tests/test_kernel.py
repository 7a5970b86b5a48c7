import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet import kernel
from cauchynet.errors import NonFiniteError, PoleEncountered, SingularSystem
from cauchynet.kernel import (EVAL_BLOCK, BoundaryMesh, KernelExpansion, _sample_values,
                              _tensor_grid, ellipse_mesh, evaluate_expansion_grid,
                              fit_expansion_least_squares, kernel_sum, quadrature_expansion)


def _at(exp, x):
    """The expansion at the one point x: a one-row grid."""
    return evaluate_expansion_grid(exp, [x])[0]


def _kernel(xi, x):
    """K(xi, x) = prod_i 1/(xi_i - x_i): the one-term expansion with theta 1 at x."""
    return _at(KernelExpansion([xi], [1.0]), x)


def test_kernel_trivial_values():
    assert _kernel([2 + 0j], [1.0]) == 1 + 0j
    assert abs(_kernel([1j, 2j], [0.0, 0.0]) - (-0.5)) < 1e-15
    assert abs(_kernel([1j], [0.0]) - (-1j)) < 1e-15


def test_kernel_pole_raises():
    with pytest.raises(PoleEncountered):
        _kernel([1 + 0j], [1.0])


def test_ellipse_mesh_closed_contour():
    for nodes in (4, 16, 37, 128):
        mesh = ellipse_mesh(2.0, 1.0, nodes=nodes)
        assert abs(np.sum(mesh.increments[0])) < 1e-12


def test_ellipse_mesh_unit_circle_four_nodes():
    mesh = ellipse_mesh(1.0, 1.0, nodes=4)
    np.testing.assert_allclose(mesh.nodes[0], [1, 1j, -1, -1j], atol=1e-15)


def test_ellipse_mesh_on_ellipse_equation():
    mesh = ellipse_mesh(6.0, 2.0, nodes=50)
    z = mesh.nodes[0]
    np.testing.assert_allclose((z.real / 6) ** 2 + (z.imag / 2) ** 2, 1.0,
                               atol=1e-12)


def test_ellipse_mesh_rejects_bad_params():
    with pytest.raises(ValueError):
        ellipse_mesh(0.0, 1.0)
    with pytest.raises(ValueError):
        ellipse_mesh(1.0, 1.0, nodes=3)


def test_quadrature_constant_function():
    # at the contour center the trapezoid sum telescopes exactly
    mesh = ellipse_mesh(1.0, 1.0, nodes=16)
    exp = quadrature_expansion(lambda z: 1.0 + 0j, mesh)
    assert abs(_at(exp, [0.0]) - 1.0) < 1e-12


def test_quadrature_constant_geometric_off_center():
    # off-center the error decays like |x|^nodes; 64 nodes reach the floor
    xs = np.linspace(-0.3, 0.3, 201)
    for nodes, bound in ((16, 1e-7), (64, 1e-12)):
        exp = quadrature_expansion(lambda z: 1.0 + 0j, ellipse_mesh(1.0, 1.0, nodes=nodes))
        assert np.abs(evaluate_expansion_grid(exp, xs) - 1.0).max() < bound


def test_quadrature_square_on_ellipse():
    mesh = ellipse_mesh(2.0, 1.0, nodes=128)
    exp = quadrature_expansion(lambda z: z * z, mesh)
    assert abs(_at(exp, [0.5]) - 0.25) < 1e-8


def test_quadrature_exp_on_circle():
    mesh = ellipse_mesh(3.0, 3.0, nodes=256)
    exp = quadrature_expansion(np.exp, mesh)
    assert abs(_at(exp, [1.0]) - np.e) < 1e-8


def test_quadrature_node_doubling_converges():
    errors = []
    xs = np.linspace(-1, 1, 201)
    for nodes in (16, 32, 64, 128):
        mesh = ellipse_mesh(2.0, 1.0, nodes=nodes)
        exp = quadrature_expansion(lambda z: z * z, mesh)
        vals = evaluate_expansion_grid(exp, xs)
        errors.append(np.abs(vals - xs ** 2).max())
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-8


def test_kernel_bounded_away_from_contour():
    # |K| <= 1/dist(boundary, evaluation set) on the sampled grid
    mesh = ellipse_mesh(2.0, 1.0, nodes=64)
    xs = np.linspace(-1, 1, 101)
    dist = min(abs(z - x) for z in mesh.nodes[0] for x in xs)
    for z in mesh.nodes[0]:
        for x in xs:
            assert abs(_kernel([z], [x])) <= 1.0 / dist + 1e-12


def test_evaluate_empty_expansion():
    exp = KernelExpansion(np.zeros((0, 1), complex), np.zeros(0, complex))
    assert _at(exp, [0.3]) == 0j


def test_evaluate_single_term():
    exp = KernelExpansion(np.array([[2.0 + 0j]]), np.array([1.0 + 0j]))
    assert _at(exp, [1.0]) == 1 + 0j


def test_evaluate_linear_in_theta():
    rng = np.random.default_rng(5)
    xi = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    t1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    t2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    x = [0.4]
    v1 = _at(KernelExpansion(xi, t1), x)
    v2 = _at(KernelExpansion(xi, t2), x)
    v12 = _at(KernelExpansion(xi, 2 * t1 - 3 * t2), x)
    assert abs(v12 - (2 * v1 - 3 * v2)) < 1e-12


def test_two_dimensional_product_quadrature():
    # f(z1, z2) = z1 * z2 is holomorphic; reconstruct at an interior point
    m1 = ellipse_mesh(2.0, 1.0, nodes=64)
    m2 = ellipse_mesh(2.0, 1.0, nodes=64)
    mesh = BoundaryMesh(m1.nodes + m2.nodes, m1.increments + m2.increments)
    exp = quadrature_expansion(lambda z: z[0] * z[1], mesh)
    val = _at(exp, [0.5, -0.3])
    assert abs(val - (0.5 * -0.3)) < 1e-8


def test_fit_single_point_interpolates():
    exp = fit_expansion_least_squares([([1.0], 5.0 + 0j)],
                                      np.array([[2.0 + 0j]]), ridge=0.0)
    np.testing.assert_allclose(exp.theta, [5.0 + 0j])


def test_fit_recovers_kernel_shaped_target():
    # target 1/(2 - x) lies in the span of kernels on the radius-3 circle
    t = 2 * np.pi * np.arange(32) / 32
    xi = 3 * np.exp(1j * t)
    xs = np.linspace(-1, 1, 64)
    samples = [([x], 1.0 / (2.0 - x)) for x in xs]
    exp = fit_expansion_least_squares(samples, xi)
    dense = np.linspace(-1, 1, 1001)
    vals = evaluate_expansion_grid(exp, dense)
    assert np.abs(vals - 1.0 / (2.0 - dense)).max() < 1e-6


def test_fit_sine_on_ellipse_points():
    t = 2 * np.pi * np.arange(64) / 64
    xi = 6 * np.cos(t) + 2j * np.sin(t)
    xs = np.linspace(-1, 1, 64)
    samples = [([x], np.sin(3 * x)) for x in xs]
    exp = fit_expansion_least_squares(samples, xi)
    dense = np.linspace(-1, 1, 1001)
    vals = evaluate_expansion_grid(exp, dense)
    assert np.abs(vals - np.sin(3 * dense)).max() < 1e-4


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        fit_expansion_least_squares([], np.array([[2.0 + 0j]]))
    with pytest.raises(SingularSystem):
        # duplicate zero columns with ridge 0: exactly rank-deficient
        fit_expansion_least_squares(
            [([0.0], 1.0), ([0.5], 1.0)],
            np.array([[2.0 + 0j], [2.0 + 0j]]), ridge=0.0)


# Reference implementations: the direct formula over the full (n, k, N)
# difference array, and the fit through the SVD of the whole design matrix.
def _reference_design(points, xs):
    d = points[None, :, :] - xs[:, None, :]
    if np.any(d == 0):
        raise PoleEncountered("reference hit a pole")
    return np.prod(1.0 / d, axis=2)


def _one_division_design(points, xs):
    """The direct design rounded like the library's kernel: 1.0 / product.

    The fit reference uses it so that the comparison isolates the solve
    path.  The "over-2d" fit is ill-conditioned enough that rounding alone
    moves its held-out values by 5e-10 between this design and the
    product of reciprocals, both solved by the full SVD.
    """
    return 1.0 / np.prod(points[None, :, :] - xs[:, None, :], axis=2)


def _reference_fit(points, xs, fs, ridge):
    U, s, Vh = np.linalg.svd(_one_division_design(points, xs), full_matrices=False)
    return Vh.conj().T @ (s / (s * s + ridge) * (U.conj().T @ fs))


def _product_mesh(ndim, nodes):
    m = ellipse_mesh(2.0, 1.0, nodes=nodes)
    return BoundaryMesh(m.nodes * ndim, m.increments * ndim)


def _centre_layouts(exp, rng):
    """{name: (expansion, on the tensor path)} for a quadrature expansion:
    its centres in tensor order, shuffled (no C order, so no tensor grid),
    and with one centre removed (no longer a tensor grid).  A 1-D expansion
    has only the first."""
    if exp.xi.shape[1] == 1:
        return {"tensor": (exp, False)}
    perm = rng.permutation(len(exp.theta))
    return {"tensor": (exp, True),
            "shuffled": (KernelExpansion(exp.xi[perm], exp.theta[perm]), False),
            "one-removed": (KernelExpansion(exp.xi[1:], exp.theta[1:]), False)}


def _point_layouts(n, ndim, rng):
    """{name: (points, a tensor grid)} for about n evaluation points: n
    scattered points, and for ndim >= 2 a grid of max(2, round(n^(1/ndim)))
    nodes per dimension in C order, shuffled (no C order, so no tensor
    grid), and with one point removed (no longer a tensor grid)."""
    layouts = {"scattered": (rng.uniform(-0.9, 0.9, size=(n, ndim)), False)}
    if ndim == 1:
        return layouts
    axes = rng.uniform(-0.9, 0.9, size=(ndim, max(2, round(n ** (1 / ndim)))))
    grid = _grid(list(axes))
    layouts.update({"grid": (grid, True),
                    "shuffled-grid": (grid[rng.permutation(len(grid))], False),
                    "grid-one-removed": (grid[1:], False)})
    return layouts


# two layouts of the points of a tensor grid: C order, a grid to
# _tensor_grid, and shuffled, no grid
LAYOUTS = ("c-order", "shuffled")


def _arranged(points, layout, seed=0):
    """The row order that puts a C-order grid of points in the layout:
    unchanged for "c-order", a permutation for "shuffled".  It checks that
    `_tensor_grid` reads the points as a grid in C order and only then."""
    order = np.arange(len(points))
    if layout == "shuffled":
        order = np.random.default_rng(seed).permutation(len(points))
    assert (_tensor_grid(points[order]) is not None) == (layout == "c-order")
    return order


@pytest.mark.parametrize("ndim,nodes", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("n", [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_BLOCK + 1, 1681])
def test_grid_matches_reference_across_block_edges(n, ndim, nodes):
    full = quadrature_expansion(lambda z: np.exp(np.sum(z, axis=0)), _product_mesh(ndim, nodes))
    rng = np.random.default_rng(n)
    for where, (xs, point_grid) in _point_layouts(n, ndim, rng).items():
        assert (_tensor_grid(xs) is not None) == point_grid, where
        for name, (exp, tensor) in _centre_layouts(full, rng).items():
            assert (_tensor_grid(exp.xi) is not None) == tensor, name
            ref = _reference_design(exp.xi, xs) @ exp.theta
            vals = evaluate_expansion_grid(exp, xs)
            assert vals.shape == (len(xs),)
            assert np.abs(vals - ref).max() <= 1e-14 * np.abs(ref).max(), (where, name)
            if not (point_grid and tensor):
                # one rule with the fit: off the both-grids path is the network's sum
                summed = kernel_sum(xs, -exp.xi, 0.0, (-1) ** ndim * exp.theta)
                assert vals.tobytes() == summed.tobytes(), (where, name)


def test_tensor_grid_recognises_only_full_grids():
    z = np.array([1j, 2j, 3j])
    grid = np.stack(np.meshgrid(z, z[:2] + 1, indexing="ij"), axis=-1).reshape(-1, 2)
    # reversed rows are C order again, on reversed axes
    nodes, flat = _tensor_grid(grid[::-1])
    np.testing.assert_array_equal(flat, np.arange(6)[::-1])
    assert [len(v) for v in nodes] == [3, 2]
    assert _tensor_grid(grid[:, :1]) is None                   # one dimension
    assert _tensor_grid(np.vstack([grid[1:], grid[:1]])) is None   # every point, no C order
    assert _tensor_grid(np.vstack([grid[1:], grid[1:2]])) is None  # a repeat, one missing
    assert _tensor_grid(grid[:5]) is None
    assert _tensor_grid(grid[:1]) is None                      # one node per dimension
    assert _tensor_grid(grid[::2]) is None                     # 3 x 1
    # two NaN nodes on an axis are no grid
    a, b = np.array([0.5, -1.0, 2.0]), np.array([1.5, 0.25])
    assert _tensor_grid(_grid([[0.5, np.nan, np.nan], b])) is None
    # degenerate, broken and reordered layouts of a real grid in C order
    grid = _grid([a, b])
    assert _tensor_grid(grid) is not None
    mixed_zero = _grid([[0.0, -1.0, 2.0], b])
    mixed_zero[1, 0] = -0.0
    exp = KernelExpansion(3j + grid, np.arange(6) + 1j)
    for name, xs in {"no point": grid[:0], "one point": grid[:1],
                     "1 x n": _grid([a[:1], b]), "n x 1": _grid([a, b[:1]]),
                     "a repeat for a missing point": grid[[0, 1, 2, 2, 4, 5]],
                     "one missing": np.delete(grid, 3, axis=0),
                     "one repeated": np.vstack([grid, grid[-1:]]),
                     "shuffled": grid[[3, 0, 5, 1, 4, 2]],
                     "meshgrid's default xy order": np.stack(np.meshgrid(a, b), axis=-1).reshape(-1, 2),
                     "equal axis values": _grid([[0.5, 0.5, 2.0], b]),
                     "0.0 and -0.0 on one axis position": mixed_zero}.items():
        assert _tensor_grid(xs) is None, name
        # every such input is evaluated by the network's sum
        vals = evaluate_expansion_grid(exp, xs)
        summed = kernel_sum(xs, -exp.xi, 0.0, exp.theta)
        assert vals.shape == (len(xs),) and vals.tobytes() == summed.tobytes(), name


_AXIS_POOL = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.75, 1.0, 3.0, 7.5, np.nan])
# mostly distinct values (0.0 and -0.0 still both), sometimes any repeats
AXIS_VALUES = (st.lists(_AXIS_POOL, min_size=2, max_size=4, unique_by=repr)
               | st.lists(_AXIS_POOL, min_size=1, max_size=4))
IMAG_VALUES = st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.5]), min_size=4, max_size=4)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), ndim=st.integers(2, 3), is_complex=st.booleans(),
       layout=st.sampled_from(["c-order", "shuffled", "rows-reversed", "columns-reversed"]),
       change=st.sampled_from([None, None, None, "drop", "repeat", "signed-zero"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tensor_grid_reads_c_order_or_none(data, ndim, is_complex, layout, change, seed):
    # random axes (repeats, NaN nodes and both zeros drawn among them), laid
    # out in C order or not, with a point dropped or repeated, or the sign
    # of some copies of a 0.0 flipped: _tensor_grid reads every C-order
    # grid of distinct finite axis values, and whatever it reads is a grid
    # in C order, bit for bit, with sorted nodes and each point's flat index
    rng = np.random.default_rng(seed)
    axes = [np.array(data.draw(AXIS_VALUES)) for _ in range(ndim)]
    if is_complex:
        axes = [a + 1j * np.array(data.draw(IMAG_VALUES))[:len(a)] for a in axes]
    if change == "signed-zero":
        axes[0][0] = 0.0
    xs = _grid(axes)
    mixed = False
    if change == "drop":
        xs = np.delete(xs, rng.integers(len(xs)), axis=0)
    elif change == "repeat":
        xs = np.insert(xs, rng.integers(len(xs) + 1), xs[rng.integers(len(xs))], axis=0)
    elif change == "signed-zero":
        # the points on the first axis position, 0.0, some flipped to -0.0
        rows = np.arange(len(xs) // len(axes[0]))
        flip = rows[rng.random(len(rows)) < 0.5]
        xs.real[flip, 0] = -0.0
        mixed = 0 < len(flip) < len(rows)
    if layout == "shuffled":
        xs = xs[rng.permutation(len(xs))]
    elif layout == "rows-reversed":
        xs = xs[::-1]                   # C order again, on reversed axes
    elif layout == "columns-reversed":
        xs = xs[:, ::-1]                # the first dimension fastest
    got = _tensor_grid(xs)
    clean = (all(len(a) >= 2 and not np.isnan(a).any() and len(set(a.tolist())) == len(a)
                 for a in axes)
             and layout in ("c-order", "rows-reversed") and change in (None, "signed-zero")
             and not mixed)
    if clean:
        assert got is not None
    if got is not None:
        nodes, flat = got
        cells = xs.reshape(*[len(v) for v in nodes], ndim)
        # axis i in layout order: the points that vary only dimension i
        layout_axes = [cells[(0,) * i + (slice(None),) + (0,) * (ndim - 1 - i) + (i,)]
                       for i in range(ndim)]
        assert _grid(layout_axes).tobytes() == xs.tobytes()
        assert [np.sort(a).tobytes() for a in layout_axes] == [v.tobytes() for v in nodes]
        assert flat.dtype == np.intp and _grid(list(nodes))[flat].tobytes() == xs.tobytes()


def test_fit_rejects_mismatched_sample_columns_before_allocating():
    # 20000 three-column samples against 500 two-dimensional centres: the
    # stacked (n + k, k + 1) buffer alone would take 164 MB
    rng = np.random.default_rng(0)
    samples = list(zip(rng.uniform(-1, 1, size=(20000, 3)), np.ones(20000)))
    xi = 3 * np.exp(2j * np.pi * rng.random((500, 2)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with pytest.raises(ValueError, match="inputs must have 2 columns, got 3"):
            fit_expansion_least_squares(samples, xi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


def test_points_are_searched_only_for_grid_centres(monkeypatch):
    searched = []

    def counted(xi):
        searched.append(len(xi))
        return _tensor_grid(xi)

    monkeypatch.setattr(kernel, "_tensor_grid", counted)
    xs = _grid([np.linspace(-1, 1, 5), np.linspace(-1, 1, 4)])
    scattered = KernelExpansion(3 + np.arange(6.0).reshape(3, 2), np.ones(3))
    evaluate_expansion_grid(scattered, xs)
    fit_expansion_least_squares([(x, 1.0) for x in xs], scattered.xi)
    assert searched == [3, 3]


def test_one_point_calls_match_grid():
    exp = quadrature_expansion(lambda z: z[0] * z[1], _product_mesh(2, 16))
    x = [0.3, -0.2]
    k = _reference_design(exp.xi[:1], np.array([x]))[0, 0]
    assert abs(_kernel(exp.xi[0], x) - k) <= 1e-15 * abs(k)


@pytest.mark.parametrize("ndim", [1, 2])
def test_pole_in_later_block_raises(ndim):
    # the t = 0 ellipse node is the real point 2 + 0j
    mesh = _product_mesh(ndim, 16)
    exp = quadrature_expansion(lambda z: 1.0, mesh)
    xs = np.zeros((3 * EVAL_BLOCK, ndim))
    xs[2 * EVAL_BLOCK + 5, 0] = 2.0
    with pytest.raises(PoleEncountered):
        evaluate_expansion_grid(exp, xs)
    samples = [(x, 1.0) for x in xs]
    with pytest.raises(PoleEncountered):
        fit_expansion_least_squares(samples, exp.xi)


def test_grid_overflow_raises_non_finite():
    # (x - xi)^2 = -1e-320 is no exact pole, but its reciprocal overflows;
    # three centres on two values per dimension are no tensor grid
    xi = np.array([[1e-160j, 1e-160j], [1j, 2j], [1j, 1e-160j]])
    assert _tensor_grid(xi) is None
    exp = KernelExpansion(xi, np.ones(3, complex))
    with pytest.raises(NonFiniteError) as exc:
        evaluate_expansion_grid(exp, np.zeros((3, 2)))
    assert not isinstance(exc.value, PoleEncountered)


@pytest.mark.parametrize("ndim", [2, 3])
def test_tensor_grid_pole_in_later_block_raises(ndim):
    # centres and points in C order are tensor grids, shuffled they are not;
    # either way a pole raises.  The t = 0 node is 2 + 0j
    exp = quadrature_expansion(lambda z: 1.0, _product_mesh(ndim, 8))
    xs = np.zeros((3 * EVAL_BLOCK, ndim))
    xs[2 * EVAL_BLOCK + 5, ndim - 1] = 2.0
    # a grid of points whose last axis holds the node 2.0
    grid = _grid([np.linspace(-0.5, 0.5, 5)] * (ndim - 1) + [np.linspace(0.0, 2.0, 9)])
    for layout in LAYOUTS:
        perm = _arranged(exp.xi, layout, ndim)
        xi = exp.xi[perm]
        points_grid = grid[_arranged(grid, layout, ndim)]
        assert _tensor_grid(xs) is None
        for points in (xs, points_grid):
            with pytest.raises(PoleEncountered):
                evaluate_expansion_grid(KernelExpansion(xi, exp.theta[perm]), points)
            with pytest.raises(PoleEncountered):
                fit_expansion_least_squares([(x, 1.0) for x in points], xi)


def test_tensor_grid_overflow_raises_non_finite():
    # the centre (1e-160i, 1e-160i) of a 2 x 2 grid: at the point (0, 0)
    # each factor is finite, their product -1e320 overflows, and no
    # difference is an exact zero
    z = np.array([1e-160j, 2.0 + 1j])
    xs = np.zeros((EVAL_BLOCK + 3, 2))
    xs[:EVAL_BLOCK] = 1.0
    # every kernel value of the centres `big` is finite (|K| <= 4 at (0, 0)),
    # the weighted sum is not
    big, big_weights = _grid([[0.5j, 2j]] * 2), np.array([1e308, 0, 0, 0])
    c_xi, c_grid = _grid([z, z]), _grid([[0.0, 1.0], [0.0, 0.5, 1.0]])
    for layout in LAYOUTS:
        xi = c_xi[_arranged(c_xi, layout)]
        grid = c_grid[_arranged(c_grid, layout)]
        order = _arranged(big, layout)
        assert _tensor_grid(xs) is None
        for points in (xs, grid):
            for call in (lambda: evaluate_expansion_grid(KernelExpansion(xi, np.ones(4)), points),
                         lambda: fit_expansion_least_squares([(x, 1.0) for x in points], xi)):
                with pytest.raises(NonFiniteError) as exc:
                    call()
                assert not isinstance(exc.value, PoleEncountered)
            with pytest.raises(NonFiniteError) as exc:
                evaluate_expansion_grid(KernelExpansion(big[order], big_weights[order]), points)
            assert not isinstance(exc.value, PoleEncountered)


def test_kernel_rejects_mismatched_dimension():
    exp = quadrature_expansion(lambda z: 1.0, _product_mesh(2, 8))
    with pytest.raises(ValueError):
        evaluate_expansion_grid(exp, np.zeros((3, 1)))


def _ellipse_points(k):
    t = 2 * np.pi * np.arange(k) / k
    return 3 * np.cos(t) + 1.5j * np.sin(t)


def _grid(axes):
    """Every point of the tensor grid on the given axes, in C order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def _c_order(points):
    """The points of a tensor grid sorted into C order on sorted axes."""
    return points[np.lexsort(points.T[::-1])]


# leading per-dimension centre counts of the grid shapes; the last takes the rest of k
CENTRE_GRIDS = {"2t": [8], "2g": [6], "3g": [4, 3]}


def _fit_problem(n, k, shape, rng):
    """k centres on an ellipse (mirrored in a second dimension when shape is
    2), n samples and 50 held-out points of cos(sum x) drawn from rng.  A
    CENTRE_GRIDS shape puts the centres on a C-order tensor grid of ellipse
    points; "2g" and "3g" put the samples on a C-order grid too, with
    n ** (1 / N) uniform coordinates per axis.  Each grid is drawn shuffled
    and sorted back into C order on sorted axes: the draws, and so the
    problems, of the shuffled grids these fits were written against."""
    if shape in CENTRE_GRIDS:
        counts = CENTRE_GRIDS[shape] + [k // math.prod(CENTRE_GRIDS[shape])]
        points = _c_order(rng.permutation(_grid([_ellipse_points(c) for c in counts])))
        ndim = len(counts)
    else:
        points = _ellipse_points(k)[:, None]
        if shape == 2:
            points = np.hstack([points, points[::-1]])
        ndim = shape
    if shape in ("2g", "3g"):
        side = round(n ** (1 / ndim))
        xs = _c_order(rng.permutation(_grid(rng.uniform(-1, 1, size=(ndim, side)))))
    else:
        xs = rng.uniform(-1, 1, size=(n, ndim))
    fs = np.cos(xs.sum(axis=1)) + 0j
    held = rng.uniform(-1, 1, size=(50, ndim))
    return points, xs, fs, held


FIT_SHAPES = pytest.mark.parametrize(
    "n,k,shape", [(150, 32, 1), (32, 32, 1), (20, 32, 1), (200, 64, 2), (12, 24, 2),
                  (200, 48, "2t"), (100, 24, "2g"), (216, 36, "3g")],
    ids=["over", "square", "under", "over-2d", "under-2d", "tensor-2d", "grid-2d", "grid-3d"])


# "under-2d" fits 12 samples with 24 centres (design condition ~1e4; at
# most 5e-12 from the reference over data seeds 0-59).  A 30 x 64 design
# has condition ~1e8, where the 1e-15 ridge starts to filter, and its
# error (up to 1.5e-8 over those seeds) depended on the data seed.
# "grid-2d" (10 x 10 samples, 6 x 4 centres) and "grid-3d" (6 x 6 x 6, 4 x 3
# x 3) have condition ~1e6 and take the Kronecker solve; an 8 x 6 centre
# grid on 14 x 14 samples has condition ~5e8 and errors near 1e-8 on both
# solvers.
@FIT_SHAPES
def test_fit_matches_full_svd_reference(n, k, shape):
    points, xs, fs, held = _fit_problem(n, k, shape, np.random.default_rng(k + n))
    kronecker = shape in ("2g", "3g")
    assert (_tensor_grid(xs) is not None and _tensor_grid(points) is not None) == kronecker
    exp = fit_expansion_least_squares(list(zip(xs, fs)), points)
    theta = _reference_fit(points, xs, fs, 1e-15)
    for where in (xs, held):
        ref = _one_division_design(points, where) @ theta
        assert np.abs(evaluate_expansion_grid(exp, where) - ref).max() < 1e-8


@pytest.mark.parametrize("centres,n", [
    ((2, 2), 2), ((2, 2), 4), ((2, 2, 2), 2), ((2, 2, 2), 3),
    ((2, 2), 3), ((2, 2), 7), ((2, 3, 2), 4), ((2, 3, 4, 5, 6), 3),
], ids=["square", "over", "under", "square-3", "over-3", "over-7", "repeat-among-3",
        "fewer-samples-than-centres"])
def test_fit_rank_deficient_ridge_zero_raises(centres, n):
    # a repeated centre repeats a column, so the design is singular; rounding
    # can leave its smallest singular value just above 0.  With distinct
    # centres, fewer samples than centres leave the column rank below k.
    points = np.array(centres, dtype=complex)[:, None]
    samples = [([x], 1.0) for x in np.linspace(0.0, 0.75, n)]
    with pytest.raises(SingularSystem):
        fit_expansion_least_squares(samples, points, ridge=0.0)


@FIT_SHAPES
def test_fit_error_against_truth_matches_full_svd_reference(n, k, shape):
    # the held-out error against cos(sum x) itself, not against the reference
    for seed in range(10):
        points, xs, fs, held = _fit_problem(n, k, shape, np.random.default_rng(seed))
        truth = np.cos(held.sum(axis=1))
        exp = fit_expansion_least_squares(list(zip(xs, fs)), points)
        ref = _one_division_design(points, held) @ _reference_fit(points, xs, fs, 1e-15)
        err = np.abs(evaluate_expansion_grid(exp, held) - truth).max()
        ref_err = np.abs(ref - truth).max()
        assert abs(err - ref_err) <= 0.01 * ref_err, (seed, err, ref_err)


def _circle_points(k):
    return 3 * np.exp(2j * np.pi * (np.arange(k) + 0.5) / k)


def _assert_ridge_fit_matches_normal_equations(xi, xs, fs, ridge):
    # theta minimizes |A theta - f|^2 + ridge |theta|^2, not sqrt(ridge) |theta|^2
    A = _reference_design(xi, xs)
    expected = np.linalg.solve(A.conj().T @ A + ridge * np.eye(len(xi)), A.conj().T @ fs)
    theta = fit_expansion_least_squares(list(zip(xs, fs)), xi, ridge=ridge).theta
    np.testing.assert_allclose(theta, expected, rtol=1e-10, atol=0)


@pytest.mark.parametrize("k,n,ridge", [
    (8, 40, 1e-6), (8, 40, 1e-2), (8, 40, 1.0), (150, 300, 1.0), (150, 100, 1.0),
], ids=["1e-06", "0.01", "1.0", "150-centres", "fewer-samples-than-centres"])
def test_fit_ridge_matches_regularized_normal_equations(k, n, ridge):
    # 8 centres give a design of condition ~550, where the normal equations
    # are accurate; 150 centres give ~4e17, and the ridge 1.0 keeps
    # AᴴA + ridge I at condition <= 5.4e3 (worst element 5.3e-11 relative)
    xs = np.linspace(-2.5, 2.5, n)[:, None]
    _assert_ridge_fit_matches_normal_equations(_circle_points(k)[:, None], xs,
                                               np.exp(xs[:, 0]) + 0j, ridge)


@pytest.mark.parametrize("ridge", [1e-6, 1e-2, 1.0])
def test_kronecker_fit_ridge_matches_regularized_normal_equations(ridge):
    # an 8 x 6 sample grid against a 4 x 3 centre grid, on a design of
    # condition ~67: both in C order, the Kronecker solve; both shuffled,
    # the stacked solve
    for layout in LAYOUTS:
        xi = _grid([_circle_points(4), _circle_points(3)])
        xi = xi[_arranged(xi, layout, 3)]
        xs = _grid([np.linspace(-2.5, 2.5, 8), np.linspace(-2, 2, 6)])
        xs = xs[_arranged(xs, layout, 4)]
        _assert_ridge_fit_matches_normal_equations(
            xi, xs, np.exp(xs[:, 0]) * np.cos(xs[:, 1]) + 0j, ridge)


def test_kronecker_fit_ridge_zero_needs_full_rank_per_dimension():
    # 15 samples for 8 centres, but 4 centre values against 3 sample values
    # in the first dimension leave the design's rank at 3 * 2 = 6 < 8
    for layout in LAYOUTS:
        xi = _grid([_circle_points(4), _circle_points(2)])
        xi = xi[_arranged(xi, layout)]
        xs = _grid([np.linspace(-1, 1, 3), np.linspace(-1, 1, 5)])
        samples = [(x, 1.0) for x in xs[_arranged(xs, layout)]]
        with pytest.raises(SingularSystem):
            fit_expansion_least_squares(samples, xi, ridge=0.0)
        # with one sample value more the same centres fit
        xs = _grid([np.linspace(-1, 1, 4), np.linspace(-1, 1, 5)])
        fit_expansion_least_squares([(x, 1.0) for x in xs[_arranged(xs, layout)]], xi,
                                    ridge=0.0)


def test_kronecker_fit_pole_raises():
    # the sample grid's second axis holds 2.0, the real part of a real centre value
    for layout in LAYOUTS:
        xi = _grid([_circle_points(3), np.array([2.0 + 0j, 1j, -1j])])
        xi = xi[_arranged(xi, layout)]
        xs = _grid([np.linspace(-1, 1, 4), np.array([0.0, 1.0, 2.0, 2.5])])
        xs = xs[_arranged(xs, layout)]
        with pytest.raises(PoleEncountered):
            fit_expansion_least_squares([(x, 1.0) for x in xs], xi)


def test_kronecker_fit_overflow_raises_non_finite():
    # each factor is finite, but the product of their largest entries,
    # 1 / (1e-160i)^2 = -1e320, overflows; no difference is an exact zero
    z = np.array([1e-160j, 2.0 + 1j])
    for layout in LAYOUTS:
        xi = _grid([z, z])
        xi = xi[_arranged(xi, layout)]
        xs = _grid([[0.0, 1.0], [0.0, 1.0]])
        xs = xs[_arranged(xs, layout)]
        with pytest.raises(NonFiniteError) as exc:
            fit_expansion_least_squares([(x, 1.0) for x in xs], xi)
        assert not isinstance(exc.value, PoleEncountered)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_fit_rejects_non_finite_sample_values(value):
    xs = np.linspace(-1, 1, 20)
    samples = [([x], value if i == 7 else 1.0) for i, x in enumerate(xs)]
    with pytest.raises(ValueError, match="sample values must be finite"):
        fit_expansion_least_squares(samples, _circle_points(8))


@pytest.mark.parametrize("shape", [1, "2g"])
def test_fit_rejects_non_finite_sample_inputs(shape):
    points, xs, fs, _ = _fit_problem(100, 24, shape, np.random.default_rng(0))
    xs[5, -1] = np.nan
    with pytest.raises(ValueError, match="sample inputs must be finite"):
        fit_expansion_least_squares(list(zip(xs, fs)), points)


def test_fit_rejects_ragged_samples():
    with pytest.raises(ValueError):
        fit_expansion_least_squares([([0.0, 1.0], 1.0), ([0.5], 1.0)], _circle_points(4))


SCALAR_MESSAGE = "each sample value must be a scalar"


def _read_or_raise(read, values):
    """read(values) as (bytes, None, False), or (None, the exception type,
    whether its message is SCALAR_MESSAGE)."""
    try:
        return read(values).tobytes(), None, False
    except Exception as exc:
        return None, type(exc), str(exc) == SCALAR_MESSAGE


def _reference_values(values):
    fs = np.array(values, dtype=complex)
    if fs.shape != (len(values),):
        raise ValueError(SCALAR_MESSAGE)
    return fs


_SCALAR_VALUES = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70), st.sampled_from([2 ** 53 + 1, 2 ** 64, 2 ** 1100]),
    st.complex_numbers(), st.floats(width=32).map(np.float32),
    st.complex_numbers(max_magnitude=1e30).map(np.complex64), st.booleans(),
    st.sampled_from(["1.5", "-0", "2+3j", "nan", "abc", ""]), st.none(),
    st.integers(-128, 127).map(np.int8), st.integers(0, 2 ** 64 - 1).map(np.uint64),
    st.floats(width=16).map(np.float16), st.floats().map(np.longdouble))


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.one_of(_SCALAR_VALUES, st.lists(_SCALAR_VALUES, max_size=2)),
                       min_size=1, max_size=5))
def test_sample_values_read_as_dtype_complex(values):
    # floats with -0.0, ints past 2^53 and 2^63, complex, numpy scalars,
    # bools, strings, None, and ragged or nested values, mixed: the same
    # bytes, or the same exception type and scalar message (a float32 beside
    # a string infers a string array, which would read it back from its repr)
    got = _read_or_raise(_sample_values, [(0.0, v) for v in values])
    assert got == _read_or_raise(_reference_values, values)


def test_fit_value_errors():
    def fit(values):
        return fit_expansion_least_squares(list(zip([[0.0], [0.5]], values)), _circle_points(4))
    with pytest.raises(ValueError, match="sample values must be finite"):
        fit([1.0, None])                 # read as NaN
    with pytest.raises(ValueError, match="sequence"):
        fit([1.0, [2.0, 3.0]])           # ragged
    with pytest.raises(ValueError, match=SCALAR_MESSAGE):
        fit([[1.0, 2.0], [3.0, 4.0]])    # nested


def test_expansion_owns_its_arrays():
    # a write to the arrays an expansion was made from, finite or not,
    # leaves its values as they were
    seen = []
    quad = quadrature_expansion(lambda z: seen.append(z) or np.cos(z[0]) * np.exp(z[1]),
                                _product_mesh(2, 8))
    xs = _grid([np.linspace(-0.5, 0.5, 6)] * 2)
    samples = list(zip(xs, evaluate_expansion_grid(quad, xs)))
    centres = quad.xi[::2].copy()
    # a grid of samples fits by the Kronecker solve, one sample fewer by the stacked QR
    fits = [fit_expansion_least_squares(s, centres) for s in (samples, samples[:-1])]
    xi, theta = quad.xi.copy(), quad.theta.copy()
    direct = KernelExpansion(xi, theta)
    before = [evaluate_expansion_grid(e, xs).tobytes() for e in (quad, *fits, direct)]
    seen[0][:] = np.nan
    assert evaluate_expansion_grid(quad, xs).tobytes() == before[0]
    centres[0, 0] = 9.0
    assert [evaluate_expansion_grid(e, xs).tobytes() for e in fits] == before[1:3]
    xi[0, 0], theta[0] = np.nan, np.inf
    assert evaluate_expansion_grid(direct, xs).tobytes() == before[3]


def test_expansion_arrays_are_read_only():
    # a write to an expansion's own arrays raises at once, before any
    # evaluation could read a value that skipped the finiteness checks
    quad = quadrature_expansion(lambda z: np.cos(z[0]) * np.exp(z[1]), _product_mesh(2, 8))
    with pytest.raises(ValueError, match="read-only"):
        quad.xi[0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        quad.theta[0] = np.inf
    # fitting at a read-only view of the centres gives the bytes of a fit at
    # a writable copy, on either solve
    xs = _grid([np.linspace(-0.5, 0.5, 6)] * 2)
    samples = list(zip(xs, evaluate_expansion_grid(quad, xs)))
    for s in (samples, samples[:-1]):
        fit = fit_expansion_least_squares(s, quad.xi[::4])
        assert fit.theta.tobytes() == fit_expansion_least_squares(s, quad.xi[::4].copy()).theta.tobytes()
        assert fit.xi.tobytes() == quad.xi[::4].tobytes()


@pytest.mark.parametrize("xi,theta,message", [
    (np.ones((2, 2, 2)), np.ones(2), "xi must be (k,) or (k, N), got shape (2, 2, 2)"),
    (3.0, np.ones(1), "xi must be (k,) or (k, N), got shape ()"),
    (np.ones((2, 1)), np.ones((2, 1)), "theta must be (k,), got shape (2, 1)"),
    (np.ones((2, 1)), 1.0, "theta must be (k,), got shape ()"),
])
def test_expansion_rejects_bad_shapes(xi, theta, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        KernelExpansion(xi, theta)


def test_kernel_calls_reject_three_dimensional_inputs():
    exp = KernelExpansion(_circle_points(4), np.ones(4))
    bad = np.zeros((3, 2, 1))
    with pytest.raises(ValueError, match=re.escape("evaluation points must be (n,) or (n, m), "
                                                   "got shape (3, 2, 1)")):
        evaluate_expansion_grid(exp, bad)
    with pytest.raises(ValueError, match=re.escape("sample inputs must be (n,) or (n, m), "
                                                   "got shape (3, 2, 1)")):
        fit_expansion_least_squares([(x, 1.0) for x in bad], _circle_points(4))
    with pytest.raises(ValueError, match=re.escape("points must be (k,) or (k, N), "
                                                   "got shape (4, 1, 1)")):
        fit_expansion_least_squares([([0.0], 1.0)], _circle_points(4)[:, None, None])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, np.nan)])
def test_expansion_rejects_a_non_finite_centre(value):
    # it used to surface only on evaluation, as "kernel block overflowed"
    with pytest.raises(ValueError, match="expansion centres must be finite"):
        KernelExpansion([[value], [2.0]], [1.0, 1.0])


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.inf, 1.0)])
def test_expansion_rejects_a_non_finite_weight(value):
    # an inf weight used to leak a RuntimeWarning from the (-1)^N sign flip
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expansion weights must be finite"):
            KernelExpansion([[3.0], [2.0]], [1.0, value])


def test_fit_rejects_a_non_finite_centre_before_solving():
    samples = [([x], 1.0) for x in np.linspace(-1, 1, 20)]
    points = _circle_points(8)
    points[3] = np.nan
    with pytest.raises(ValueError, match="boundary points must be finite"):
        fit_expansion_least_squares(samples, points)


def test_a_grid_with_a_nan_node_is_rejected():
    # a NaN node on each axis of a 3 x 3 grid in C order still passes
    # _tensor_grid's read, so the check has to come first; shuffled, the
    # points are no grid and take the same check
    axis = np.array([3.0 + 1j, np.nan, -3.0 + 1j])
    samples = [(x, 1.0) for x in _grid([[-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5]])]
    for layout in LAYOUTS:
        points = _grid([axis, axis])
        points = points[_arranged(points, layout)]
        with pytest.raises(ValueError, match="boundary points must be finite"):
            fit_expansion_least_squares(samples, points)
        with pytest.raises(ValueError, match="expansion centres must be finite"):
            KernelExpansion(points, np.ones(len(points)))


@pytest.mark.parametrize("ndim", [1, 2])
def test_evaluate_rejects_non_finite_points(ndim):
    exp = quadrature_expansion(lambda z: 1.0, _product_mesh(ndim, 8))
    xs = np.zeros((5, ndim))
    xs[3, 0] = np.nan
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        evaluate_expansion_grid(exp, xs)


@pytest.mark.parametrize("ridge", [np.inf, np.nan, -1e-3])
def test_fit_rejects_bad_ridge(ridge):
    xi = 3 * np.exp(2j * np.pi * np.arange(8) / 8)
    samples = [([x], np.exp(x)) for x in np.linspace(-1, 1, 20)]
    with pytest.raises(ValueError, match="ridge"):
        fit_expansion_least_squares(samples, xi, ridge=ridge)


def _grid_memory_peak(xi):
    exp = KernelExpansion(xi, np.ones(len(xi), complex))
    axis = np.linspace(-1.0, 1.0, 41)
    xs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate_expansion_grid(exp, xs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak


def _oracle_centres():
    z = ellipse_mesh(2.0, 1.0, nodes=48).nodes[0]
    return _grid([z, z])


def test_grid_memory_is_one_block():
    # oracle shape: 1681 points, 48 x 48 = 2304 centres less one (no tensor
    # grid), N = 2; the direct (n, k, N) formula needs ~300 MB here
    xi = _oracle_centres()[1:]
    assert _tensor_grid(xi) is None
    peak = _grid_memory_peak(xi)
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_tensor_grid_memory_is_one_block():
    xi = _oracle_centres()
    assert _tensor_grid(xi) is not None
    peak = _grid_memory_peak(xi)
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_kronecker_fit_memory():
    # the oracle fit: 41 x 41 samples against every 4th of the 48 x 48
    # centres (48 x 12); its design alone would be 1681 x 576 complex, 15.5 MB
    axis = np.linspace(-1.0, 1.0, 41)
    xs = _grid([axis, axis])
    samples = list(zip(xs, np.cos(xs.sum(axis=1))))
    xi = _oracle_centres()[::4]
    assert _tensor_grid(xi) is not None and _tensor_grid(xs) is not None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fit_expansion_least_squares(samples, xi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"
