import numpy as np
import pytest

from cauchynet.errors import PoleEncountered, SchemaError, SingularSystem
from cauchynet.kernel import (BoundaryMesh, KernelExpansion, cauchy_kernel,
                              ellipse_mesh, evaluate_expansion,
                              evaluate_expansion_grid,
                              fit_expansion_least_squares, load_expansion,
                              quadrature_expansion, save_expansion)


def test_kernel_trivial_values():
    assert cauchy_kernel([2 + 0j], [1.0]) == 1 + 0j
    assert abs(cauchy_kernel([1j, 2j], [0.0, 0.0]) - (-0.5)) < 1e-15
    assert abs(cauchy_kernel([1j], [0.0]) - (-1j)) < 1e-15


def test_kernel_pole_raises():
    with pytest.raises(PoleEncountered):
        cauchy_kernel([1 + 0j], [1.0])


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
    mesh = ellipse_mesh(1.0, 1.0, nodes=16)
    exp = quadrature_expansion(lambda z: 1.0 + 0j, mesh)
    assert abs(evaluate_expansion(exp, [0.0]) - 1.0) < 1e-12


def test_quadrature_square_on_ellipse():
    mesh = ellipse_mesh(2.0, 1.0, nodes=128)
    exp = quadrature_expansion(lambda z: z * z, mesh)
    assert abs(evaluate_expansion(exp, [0.5]) - 0.25) < 1e-8


def test_quadrature_exp_on_circle():
    mesh = ellipse_mesh(3.0, 3.0, nodes=256)
    exp = quadrature_expansion(np.exp, mesh)
    assert abs(evaluate_expansion(exp, [1.0]) - np.e) < 1e-8


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
            assert abs(cauchy_kernel([z], [x])) <= 1.0 / dist + 1e-12


def test_evaluate_empty_expansion():
    exp = KernelExpansion(np.zeros((0, 1), complex), np.zeros(0, complex))
    assert evaluate_expansion(exp, [0.3]) == 0j


def test_evaluate_single_term():
    exp = KernelExpansion(np.array([[2.0 + 0j]]), np.array([1.0 + 0j]))
    assert evaluate_expansion(exp, [1.0]) == 1 + 0j


def test_evaluate_linear_in_theta():
    rng = np.random.default_rng(5)
    xi = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
    t1 = rng.normal(size=8) + 1j * rng.normal(size=8)
    t2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    x = [0.4]
    v1 = evaluate_expansion(KernelExpansion(xi, t1), x)
    v2 = evaluate_expansion(KernelExpansion(xi, t2), x)
    v12 = evaluate_expansion(KernelExpansion(xi, 2 * t1 - 3 * t2), x)
    assert abs(v12 - (2 * v1 - 3 * v2)) < 1e-12


def test_two_dimensional_product_quadrature():
    # f(z1, z2) = z1 * z2 is holomorphic; reconstruct at an interior point
    m1 = ellipse_mesh(2.0, 1.0, nodes=64)
    m2 = ellipse_mesh(2.0, 1.0, nodes=64)
    mesh = BoundaryMesh(m1.nodes + m2.nodes, m1.increments + m2.increments)
    exp = quadrature_expansion(lambda z: z[0] * z[1], mesh)
    val = evaluate_expansion(exp, [0.5, -0.3])
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


def test_expansion_json_round_trip(tmp_path):
    t = 2 * np.pi * np.arange(8) / 8
    xi = (2 * np.cos(t) + 1j * np.sin(t))[:, None]
    theta = np.exp(1j * t)
    exp = KernelExpansion(xi, theta)
    path = tmp_path / "expansion.json"
    save_expansion(exp, path)
    back = load_expansion(path)
    np.testing.assert_array_equal(back.xi, exp.xi)
    np.testing.assert_array_equal(back.theta, exp.theta)


def test_expansion_load_rejects_missing_field(tmp_path):
    import json
    path = tmp_path / "expansion.json"
    path.write_text(json.dumps({"version": 1, "xi_re": [[2.0]], "xi_im": [[0.0]],
                                "theta_re": [1.0]}))
    with pytest.raises(SchemaError):
        load_expansion(path)
