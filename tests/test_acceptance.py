"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
outcome listing.  The training-based criteria are statistical orderings on
fixed seeds, not value-exact reproductions; tolerances and runtime caps are
pinned in each test.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from cauchynet.activation import cauchy_activation, cauchy_activation_derivative
from cauchynet.complex_linalg import Rng
from cauchynet.errors import NonFiniteError, PoleEncountered
from cauchynet.data import (find_turning_points, seasonal_decompose_multiplicative,
                            target_exp2_gap)
from cauchynet.baseline import mlp_predict
from cauchynet.experiments import (build_dataset, fit, fit_baseline, get_preset,
                                   prepare, run_experiment, run_lambda_ablation)
from cauchynet.grad import batch_gradient, finite_difference_gradients
from cauchynet.kernel import ellipse_mesh, evaluate_expansion_grid, quadrature_expansion
from cauchynet.model import init_elliptical, parameter_count, predict
from cauchynet.workers import map_forked

from test_grad import max_rel_err, offpole_model


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_gradient_correctness():
    """The one-row batch gradient matches central finite differences to 1e-5
    over 100 instances."""
    t0 = time.perf_counter()
    rng = Rng(1001)
    hs, ms, lams = (1, 2, 8), (1, 2, 3), (0.0, 0.1, 1.0)
    worst = 0.0
    for i in range(100):
        h, m, lam = hs[i % 3], ms[(i // 3) % 3], lams[(i // 9) % 3]
        model = offpole_model(h, m, rng)
        x = np.array([rng.uniform_in(-1, 1) for _ in range(m)])
        y_true = rng.uniform_in(-2, 2)
        an = batch_gradient(model, np.reshape(x, (1, -1)), [y_true], lam)[1]
        fd = finite_difference_gradients(model, x, y_true, lam, step=1e-6)
        worst = max(worst, max_rel_err(an, fd))
    elapsed = time.perf_counter() - t0
    report(1, worst < 1e-5 and elapsed < 5.0,
           f"100 instances, worst relative gradient error {worst:.2e}, "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_02_derivative_identity():
    """Analytic derivative equals -act(z)^2 to 1e-12 on 1000 random inputs."""
    t0 = time.perf_counter()
    rng = Rng(1002)
    worst = 0.0
    for _ in range(1000):
        mag = 10.0 ** rng.uniform_in(-1, 1)
        ang = rng.uniform_in(0, 2 * np.pi)
        z = mag * complex(np.cos(ang), np.sin(ang))
        d = cauchy_activation_derivative(z)
        s = -cauchy_activation([z]) ** 2
        worst = max(worst, abs(d - s) / abs(d))
    elapsed = time.perf_counter() - t0
    report(2, worst < 1e-12 and elapsed < 1.0,
           f"1000 inputs, worst relative deviation {worst:.2e}, "
           f"{elapsed:.2f}s (< 1s)")


def test_criterion_03_quadrature_convergence():
    """z^2 on the 2x1 ellipse: strictly decreasing sup error, < 1e-8 at 128."""
    t0 = time.perf_counter()
    xs = np.linspace(-1, 1, 201)
    errors = []
    for nodes in (16, 32, 64, 128):
        exp = quadrature_expansion(lambda z: z * z,
                                   ellipse_mesh(2.0, 1.0, nodes=nodes))
        errors.append(float(np.abs(evaluate_expansion_grid(exp, xs) - xs ** 2).max()))
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report(3, decreasing and errors[-1] < 1e-8 and elapsed < 1.0,
           f"sup errors {['%.2e' % e for e in errors]}, {elapsed:.2f}s (< 1s)")


def test_criterion_04_intro_comparison():
    """Median final validation MSE over 10 seeds: inversion net below MLP."""
    t0 = time.perf_counter()
    spec = get_preset("intro-spike")

    def val_mses(seed):
        seeded = replace(spec, train=replace(spec.train, seed=seed))
        _, scaled, _ = prepare(seeded)
        scores = []
        for fitter, predict_fn in ((fit, predict), (fit_baseline, mlp_predict)):
            try:
                yv, _ = predict_fn(fitter(seeded, scaled)[0], scaled.val_x)
                scores.append(float(((yv - scaled.val_y) ** 2).mean()))
            except (NonFiniteError, PoleEncountered):
                scores.append(float("inf"))
        return scores

    cn_scores, mlp_scores = zip(*map_forked(val_mses, range(1, 11)))
    elapsed = time.perf_counter() - t0
    med_cn, med_mlp = float(np.median(cn_scores)), float(np.median(mlp_scores))
    report(4, med_cn < med_mlp and elapsed < 300.0,
           f"median val MSE {med_cn:.3e} vs MLP {med_mlp:.3e} over 10 seeds, "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_05_exp1_mae_ordering(tmp_path):
    """exp1 preset: test MAE below the MLP's and at most 3.0 unscaled."""
    t0 = time.perf_counter()
    spec = get_preset("exp1")
    run_experiment(spec, tmp_path)
    rows = {}
    for line in (tmp_path / "metrics.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        rows[(parts[0], parts[1])] = float(parts[3])
    cn_mae = rows[("cauchynet", "test")]
    mlp_mae = rows[("relu_mlp", "test")]
    elapsed = time.perf_counter() - t0
    report(5, cn_mae < mlp_mae and cn_mae <= 3.0 and elapsed < 120.0,
           f"test MAE {cn_mae:.3f} (<= 3.0) vs MLP {mlp_mae:.3f}, "
           f"{elapsed:.1f}s (< 120s)")


def test_criterion_06_gap_filling(tmp_path):
    """Six masked zones, clean train split, beats the constant predictor."""
    t0 = time.perf_counter()
    spec = get_preset("exp2-gap")
    centers = find_turning_points(target_exp2_gap, -2.0, 2.0)
    ds = build_dataset(spec)
    clean = all(np.all(np.abs(ds.train_x[:, 0] - c) > spec.mask.half_width)
                for c in centers)
    report_obj = run_experiment(spec, tmp_path)
    const_mae = float(np.abs(ds.test_y - ds.train_y.mean()).mean())
    elapsed = time.perf_counter() - t0
    report(6, len(centers) == 6 and clean
           and math.isfinite(report_obj.mae) and report_obj.mae < const_mae
           and elapsed < 300.0,
           f"{len(centers)} zones, hidden-region MAE {report_obj.mae:.4f} vs "
           f"constant-mean {const_mae:.4f}, {elapsed:.1f}s (< 300s)")


def test_criterion_07_disk_geometry(tmp_path):
    """Disk run: exact test geometry and a signed-error CSV over the disk."""
    spec = get_preset("exp2-disk")
    run_experiment(spec, tmp_path)
    inside = lambda x0, x1: x0 * x0 + x1 * x1 <= 0.09 + 1e-12
    ok = True
    for line in (tmp_path / "predictions.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        split, x0, x1 = parts[0], float(parts[1]), float(parts[2])
        if split == "test":
            ok &= inside(x0, x1)
        else:
            ok &= not inside(x0, x1)
    err_lines = (tmp_path / "imputation_errors.csv").read_text().splitlines()
    signed = [float(l.split(",")[-1]) for l in err_lines[1:]]
    report(7, ok and len(signed) > 0,
           f"geometry exact over {len(signed)} disk points; signed error in "
           f"[{min(signed):.4f}, {max(signed):.4f}] "
           f"(reference band [-0.005, 0.0125] reported, not gated)")


def test_criterion_08_determinism(tmp_path):
    """Identical seed reruns emit byte-identical deterministic artifacts."""
    spec = get_preset("exp1")
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    same = all((tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
               for f in ("trainlog.csv", "predictions.csv", "checkpoint.json",
                         "baseline_trainlog.csv", "baseline_predictions.csv",
                         "baseline_checkpoint.json"))
    report(8, same, "trainlog.csv, predictions.csv, checkpoint.json "
                    "byte-identical across reruns (baseline files too)")


def test_criterion_09_decomposition_reconstruction():
    """Constructed trend x seasonal x residual factorization is recovered."""
    period = 6
    seasonal = np.array([0.7, 0.9, 1.2, 1.3, 1.0, 0.9])
    seasonal = seasonal / seasonal.mean()
    trend_c = 12.5
    series = trend_c * np.tile(seasonal, 10)
    dec = seasonal_decompose_multiplicative(series, period)
    ok_idx = np.isfinite(dec.trend)
    trend_err = np.abs(dec.trend[ok_idx] - trend_c).max() / trend_c
    seas_err = np.abs(dec.seasonal[:period] - seasonal).max()
    recon = (dec.trend * dec.seasonal * dec.residual)[ok_idx]
    recon_err = np.abs(recon / series[ok_idx] - 1).max()
    report(9, trend_err < 1e-9 and seas_err < 1e-9 and recon_err < 1e-9,
           f"component errors {trend_err:.1e}/{seas_err:.1e}, "
           f"reconstruction {recon_err:.1e} (all < 1e-9)")


def test_criterion_10_parameter_count(tmp_path):
    """h=128, m=1 reports 256 complex / 512 real, with the convention note."""
    net = init_elliptical(128, 1, Rng(0), 1.05, 0.1)
    cplx, real = parameter_count(net)
    spec = get_preset("exp1")
    spec.n_samples = 60
    spec.model.h = 8
    spec.train.epochs = 2
    spec.baseline = False
    run_experiment(spec, tmp_path)
    notes = json.loads((tmp_path / "manifest.json").read_text())["notes"]
    noted = any("complex parameter pairs" in n and "either convention" in n
                for n in notes)
    report(10, (cplx, real) == (256, 512) and noted,
           f"counts ({cplx} complex, {real} real) == (256, 512); "
           f"counting-convention note present in run manifest")


def test_criterion_11_lambda_ablation(tmp_path):
    """One complete row-group per penalty value with a shared seed."""
    spec = get_preset("exp5-lambda")
    lambdas = (0.1, 0.3, 0.5, 1.0, 1.5)
    assert spec.lambdas == lambdas
    rows, summary = run_lambda_ablation(spec, tmp_path)
    by_lam = {l: [r for r in rows if r[0] == l] for l in lambdas}
    complete = all(len(v) == spec.train.epochs for v in by_lam.values())
    shared_seed = all(r[1] == spec.train.seed for r in rows)
    finite = all(math.isfinite(r[3]) for r in rows)
    csv_ok = (tmp_path / "lambda_ablation.csv").exists()
    report(11, complete and shared_seed and finite and csv_ok,
           f"{len(rows)} rows, {spec.train.epochs} epochs x {len(lambdas)} "
           f"lambdas, shared seed {spec.train.seed}; {summary}")
