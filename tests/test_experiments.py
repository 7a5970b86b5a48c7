import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet import cli, kernel, workers
from cauchynet import experiments as xp
from cauchynet import model as mdl
from cauchynet.complex_linalg import Rng
from cauchynet.data import ScalerState
from cauchynet.errors import (CauchyNetError, LengthMismatch, NonFiniteError,
                              ValidationError)
from cauchynet.experiments import (ExperimentSpec, MetricsReport, ModelSpec,
                                   build_dataset, get_preset, metric_mae,
                                   metric_mse, run_experiment, run_kernel_demo,
                                   run_lambda_ablation, run_sensitivity_grid,
                                   validate_spec)
from cauchynet.optim import TrainConfig


def tiny_spec(**kw):
    """Fast exp1-flavored spec for harness tests."""
    base = dict(
        name="tiny", generator="exp1", n_samples=60,
        model=ModelSpec(h=16, init_major=1.05, init_minor=0.1),
        train=TrainConfig(epochs=5, lr0=0.01, weight_decay=0.0, lam=0.1, seed=10),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_metric_trivial_cases():
    assert metric_mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert metric_mse([1.0, 3.0], [0.0, 0.0]) == pytest.approx(5.0)
    assert metric_mae([1.0, 3.0], [0.0, 0.0]) == pytest.approx(2.0)
    assert metric_mse([2.5], [2.0]) == pytest.approx(0.25)
    assert metric_mae([2.5], [2.0]) == pytest.approx(0.5)


def test_metric_rejects_mismatch():
    with pytest.raises(LengthMismatch):
        metric_mse([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        metric_mae([], [])


def test_mae_squared_below_mse_randomized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.normal(size=20)
        t = rng.normal(size=20)
        assert metric_mae(p, t) ** 2 <= metric_mse(p, t) + 1e-15


def test_metrics_report_rejects_mae_above_rms():
    with pytest.raises(CauchyNetError, match="mae"):
        MetricsReport(mse=1.0, mae=2.0, abs_errors=np.array([2.0]),
                      complex_params=0, real_params=0, wall_ms=0.0)


def test_presets_all_validate():
    for name in ("intro-spike", "exp1", "exp2-gap", "exp2-disk",
                 "exp3-surface", "exp5-lambda", "exp5-grid"):
        validate_spec(get_preset(name))


def test_unknown_generator_rejected_before_compute():
    spec = tiny_spec(generator="nope")
    with pytest.raises(ValidationError, match="unknown generator"):
        validate_spec(spec)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        get_preset("exp99")


@pytest.mark.parametrize("name", sorted(xp.PRESETS))
def test_spec_dict_round_trip(name):
    spec = get_preset(name)
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


# Any JSON value: what a config file or a --set flag can hold.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_config_fuzz_raises_only_validation_error(data):
    doc = get_preset(data.draw(st.sampled_from(sorted(xp.PRESETS)))).to_dict()
    sections = [doc] + [doc[k] for k in ("model", "train", "mask") if doc[k] is not None]
    node = data.draw(st.sampled_from(sections))
    node[data.draw(st.sampled_from(sorted(node)))] = data.draw(_JSON_VALUES)
    try:
        validate_spec(ExperimentSpec.from_dict(doc))
    except ValidationError:
        pass


def test_spec_rejects_unknown_fields():
    doc = tiny_spec().to_dict()
    doc["bogus"] = 1
    with pytest.raises(ValidationError, match="unknown config fields"):
        ExperimentSpec.from_dict(doc)


@pytest.mark.parametrize("section,key,value,message", [
    ("model", "h", 1.5, "model.h must be int"),
    ("model", "h", True, "model.h must be int"),
    ("model", "h", "8", "model.h must be int"),
    ("train", "epochs", 1.5, "train.epochs must be int"),
    ("train", "lr0", "0.1", "train.lr0 must be float"),
    ("train", "bogus", 1, "unknown config fields: ['train.bogus']"),
    (None, "n_samples", 3.0, "n_samples must be int"),
    (None, "baseline", 1, "baseline must be bool"),
])
def test_spec_rejects_mistyped_fields(section, key, value, message):
    doc = tiny_spec().to_dict()
    (doc[section] if section else doc)[key] = value
    with pytest.raises(ValidationError, match=re.escape(message)):
        ExperimentSpec.from_dict(doc)


def test_spec_float_fields_accept_ints():
    doc = tiny_spec().to_dict()
    doc["train"]["lr0"] = 1
    doc["model"]["init_major"] = 2
    doc["fractions"] = [0.5, 0.25, 0.25]
    spec = ExperimentSpec.from_dict(doc)
    assert type(spec.train.lr0) is float and spec.train.lr0 == 1.0
    assert type(spec.model.init_major) is float
    assert spec.fractions == (0.5, 0.25, 0.25)


def test_turning_point_mask_needs_1d_generator():
    spec = tiny_spec(generator="surface2d",
                     mask={"kind": "intervals", "half_width": 0.1})
    with pytest.raises(ValidationError, match="1-D"):
        validate_spec(spec)


def test_build_dataset_split_sizes():
    ds = build_dataset(tiny_spec(n_samples=300, fractions=(0.5, 0.25, 0.25)))
    assert (len(ds.train_y), len(ds.val_y), len(ds.test_y)) == (150, 75, 75)


def test_random_2d_points_equal_the_scalar_loop():
    # One uint64 pass, laid out as (x0, x1) rows, replays the per-point loop.
    spec = get_preset("exp2-disk")
    spec.n_samples = 3000
    pts, _ = xp._random_2d(spec, Rng(21), -0.8, 0.8, lambda a, b: a + b)
    rng = Rng(21)
    expected = np.array([[rng.uniform_in(-0.8, 0.8), rng.uniform_in(-0.8, 0.8)]
                         for _ in range(3000)])
    assert pts.tobytes() == expected.tobytes()


def test_build_dataset_gap_mask():
    spec = get_preset("exp2-gap")
    spec.n_samples = 200
    ds = build_dataset(spec)
    assert len(ds.test_y) > 0
    # no train point inside any masked zone
    from cauchynet.data import find_turning_points, target_exp2_gap
    centers = find_turning_points(target_exp2_gap, -2, 2)
    for c in centers:
        assert np.all(np.abs(ds.train_x[:, 0] - c) > 0.15)


def test_run_experiment_emits_artifacts(tmp_path):
    spec = tiny_spec()
    report = run_experiment(spec, tmp_path)
    for f in ("trainlog.csv", "predictions.csv", "metrics.csv",
              "checkpoint.json", "manifest.json"):
        assert (tmp_path / f).exists(), f
    assert math.isfinite(report.mse) and math.isfinite(report.mae)
    assert report.mae ** 2 <= report.mse * (1 + 1e-12)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert set(manifest["files"]) >= {"trainlog.csv", "predictions.csv",
                                      "metrics.csv", "checkpoint.json"}


def test_run_experiment_deterministic_artifacts(tmp_path):
    spec = tiny_spec()
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    for f in ("trainlog.csv", "predictions.csv", "checkpoint.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())["files"]
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())["files"]
    for f in ("trainlog.csv", "predictions.csv", "checkpoint.json"):
        assert ma[f] == mb[f]


def test_two_input_reruns_are_byte_identical(tmp_path):
    """An m = 2 run (exp3-surface, shortened) reruns byte for byte."""
    spec = get_preset("exp3-surface")
    spec.train.epochs = 20
    run_experiment(spec, tmp_path / "a")
    run_experiment(spec, tmp_path / "b")
    for f in ("trainlog.csv", "predictions.csv", "checkpoint.json"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f


def test_run_experiment_baseline_artifacts(tmp_path):
    spec = tiny_spec(baseline=True)
    run_experiment(spec, tmp_path)
    for f in ("baseline_trainlog.csv", "baseline_predictions.csv",
              "baseline_checkpoint.json"):
        assert (tmp_path / f).exists(), f
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert any(r.startswith("relu_mlp,test") for r in rows)
    assert any(r.startswith("cauchynet,test") for r in rows)


def test_run_experiment_masked_emits_signed_errors(tmp_path):
    spec = get_preset("exp2-disk")
    spec.n_samples = 400
    spec.model.h = 16
    spec.train.epochs = 3
    run_experiment(spec, tmp_path)
    lines = (tmp_path / "imputation_errors.csv").read_text().splitlines()
    assert lines[0] == "x0,x1,y_true,y_pred,signed_err"
    assert len(lines) > 1
    for ln in lines[1:]:
        x0, x1 = (float(v) for v in ln.split(",")[:2])
        assert x0 * x0 + x1 * x1 <= 0.09 + 1e-12


def test_run_experiment_predicts_each_split_once(tmp_path, monkeypatch):
    calls = []
    original = mdl.predict

    def counted(model, X):
        calls.append(len(X))
        return original(model, X)

    monkeypatch.setattr(mdl, "predict", counted)
    spec = get_preset("exp2-disk")
    spec.n_samples, spec.model.h, spec.train.epochs = 400, 8, 3
    for n in (1, 2):
        monkeypatch.setattr(workers, "process_slots", lambda: n)
        calls.clear()
        run_experiment(spec, tmp_path / str(n))
        # one validation pass per epoch, here or in the evaluator process, then
        # one pass per split feeds every artifact
        assert len(calls) == {1: 3 + 3, 2: 3}[n]


def test_divergence_leaves_partial_trainlog_and_manifest(tmp_path, capsys, monkeypatch):
    calls = []
    original = mdl.predict

    def diverges_on_third_call(model, X):
        calls.append(len(X))
        if len(calls) == 3:
            raise NonFiniteError("injected overflow")
        return original(model, X)

    monkeypatch.setattr(mdl, "predict", diverges_on_third_call)
    argv = ["train", "--preset", "exp1", "--out", str(tmp_path), "--set", "n_samples=60",
            "--set", "model.h=8", "--set", "train.epochs=5", "--set", "baseline=false"]
    assert cli.main(argv) == 3
    run = tmp_path / "exp1"
    # the validation passes of epochs 0 and 1 succeed; epoch 2's fails
    assert len((run / "trainlog.csv").read_text().splitlines()) == 1 + 2
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["status"] == "diverged"
    assert list(manifest["files"]) == ["trainlog.csv"]
    assert "min_abs_im_B" not in manifest      # no trained network to certify
    assert not (run / "checkpoint.json").exists()


def test_predictions_header_1d_and_2d(tmp_path):
    run_experiment(tiny_spec(), tmp_path / "one")
    head1 = (tmp_path / "one" / "predictions.csv").read_text().splitlines()[0]
    assert head1 == "split,x0,y_true,y_pred,e_pred,abs_err"
    spec2 = tiny_spec(generator="surface2d", n_samples=60)
    run_experiment(spec2, tmp_path / "two")
    head2 = (tmp_path / "two" / "predictions.csv").read_text().splitlines()[0]
    assert head2 == "split,x0,x1,y_true,y_pred,e_pred,abs_err"


def test_lambda_ablation_rows(tmp_path):
    spec = tiny_spec(lambdas=(0.1, 0.3, 0.5, 1.0, 1.5))
    rows, summary = run_lambda_ablation(spec, tmp_path)
    # 5 lambdas x 5 epochs, five rows per epoch snapshot
    assert len(rows) == 25
    per_epoch = [r for r in rows if r[2] == 3]
    assert len(per_epoch) == 5
    assert all(r[1] == 10 for r in rows)
    lines = (tmp_path / "lambda_ablation.csv").read_text().splitlines()
    assert lines[0] == "lambda,seed,epoch,test_mse"
    assert len(lines) == 26
    assert "best at lambda=" in summary


def test_lambda_ablation_zero_reduces_to_plain_mse(tmp_path):
    rows, _ = run_lambda_ablation(tiny_spec(lambdas=(0.0,)), tmp_path)
    assert all(r[0] == 0.0 for r in rows)
    assert all(math.isfinite(r[3]) for r in rows)


def test_lambda_ablation_rejects_empty():
    with pytest.raises(ValidationError):
        run_lambda_ablation(tiny_spec(lambdas=()))


def test_sensitivity_grid_shapes(tmp_path):
    spec = tiny_spec(n_samples=80)
    rows = run_sensitivity_grid(spec, hidden=[8, 16], data_sizes=[40, 80],
                                lrs=[0.01], wds=[0.0], outdir=tmp_path)
    assert len(rows) == 4
    assert {(r[0], r[1]) for r in rows} == {(8, 40), (8, 80), (16, 40), (16, 80)}
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "h,n,lr,wd,test_mse,note"
    assert len(lines) == 5


def test_sensitivity_grid_single_cell(tmp_path):
    # A one-cell sweep at the spec's (h, n, lr, wd) and a one-lambda ablation
    # at its lam train the run's network and report the run's test MSE.
    spec = tiny_spec(n_samples=80)
    (cell,) = run_sensitivity_grid(replace(
        spec, grid_hidden=(spec.model.h,), grid_sizes=(spec.n_samples,),
        grid_lrs=(spec.train.lr0,), grid_wds=(spec.train.weight_decay,)))
    rows, _ = run_lambda_ablation(replace(spec, lambdas=(spec.train.lam,)))
    assert repr(cell[4]) == repr(rows[-1][3]) == repr(run_experiment(spec, tmp_path).mse)


def test_sensitivity_grid_failed_cell_is_nan_row():
    # 2 samples cannot form a 3-way split: the cell fails, not the sweep
    rows = run_sensitivity_grid(tiny_spec(), hidden=[8], data_sizes=[2, 60],
                                lrs=[0.01], wds=[0.0])
    assert len(rows) == 2
    failed = [r for r in rows if math.isnan(r[4])]
    assert len(failed) == 1 and failed[0][5].startswith("failed")


def test_sensitivity_grid_cell_out_of_range_carries_spec_message():
    rows = run_sensitivity_grid(tiny_spec(), hidden=[0, 8], data_sizes=[60],
                                lrs=[0.01], wds=[0.0])
    assert [r[0] for r in rows] == [0, 8]
    assert math.isnan(rows[0][4]) and rows[0][5] == "failed: model.h must be at least 1"
    assert math.isfinite(rows[1][4]) and rows[1][5] == ""


def diverging_steps_spec():
    """lr0 = 1e300 with weight decay: epoch 0's second Adam step overflows
    its second moment (84 train rows, three batches an epoch)."""
    return tiny_spec(n_samples=120, lambdas=(0.1,),
                     train=TrainConfig(epochs=5, lr0=1e300, weight_decay=1e-4,
                                       lam=0.1, seed=10))


def test_sensitivity_grid_cell_with_diverging_steps_is_nan_row():
    spec = diverging_steps_spec()
    rows = run_sensitivity_grid(spec, hidden=[8], data_sizes=[120],
                                lrs=[1e300, 0.01], wds=[1e-4])
    assert math.isnan(rows[0][4])
    assert rows[0][5].startswith("failed: training diverged at epoch 0: Adam moment")
    assert math.isfinite(rows[1][4]) and rows[1][5] == ""


def test_lambda_ablation_arm_with_diverging_steps_raises():
    with pytest.raises(NonFiniteError, match="^training diverged at epoch 0") as info:
        run_lambda_ablation(diverging_steps_spec())
    assert info.value.epoch == 0 and info.value.partial_log.entries == []


@pytest.mark.parametrize("axes", [
    dict(hidden=[8.5]), dict(data_sizes=[60.0]), dict(lrs=[float("nan")]),
    dict(wds=[float("inf")]),
], ids=["float-width", "float-size", "nan-lr", "infinite-wd"])
def test_sensitivity_grid_rejects_mistyped_axis_before_training(monkeypatch, axes):
    monkeypatch.setattr(xp, "train", lambda *a, **k: pytest.fail("a cell trained"))
    grid = {**dict(hidden=[8], data_sizes=[60], lrs=[0.01], wds=[0.0]), **axes}
    with pytest.raises(ValidationError):
        run_sensitivity_grid(tiny_spec(), **grid)


@pytest.mark.parametrize("failures,expected", [
    ((ValidationError("bad cell"), ValidationError("bad cell")), ValidationError),
    ((ValidationError("bad cell"), NonFiniteError("diverged")), NonFiniteError),
])
def test_sensitivity_grid_every_cell_failed(monkeypatch, failures, expected):
    # Keyed on the cell, not the call order: a cell run in a forked worker
    # would pop its own copy of a list.
    by_width = dict(zip([8, 16], failures))

    def fail(spec, h, *args):
        raise by_width[h]

    monkeypatch.setattr(xp, "_sweep_cell", fail)
    for slots in (1, 2):
        monkeypatch.setattr(workers, "process_slots", lambda: slots)
        with pytest.raises(expected):
            run_sensitivity_grid(tiny_spec(), hidden=[8, 16], data_sizes=[60],
                                 lrs=[0.01], wds=[0.0])


def test_kernel_demo_square(tmp_path):
    rows = run_kernel_demo("square", node_counts=(16, 32, 64, 128), outdir=tmp_path)
    errs = [e for _, e in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-8
    lines = (tmp_path / "kernel_demo.csv").read_text().splitlines()
    assert lines[0] == "nodes,sup_error"


def test_kernel_demo_constant_exact_at_center():
    # the demo's constant target: at the centre of a circle the trapezoid sum
    # telescopes exactly (the demo's own 2 x 1 ellipse needs 64 nodes)
    f, _ = xp.KERNEL_DEMOS["one"]
    exp = kernel.quadrature_expansion(f, kernel.ellipse_mesh(1.0, 1.0, nodes=16))
    assert abs(kernel.evaluate_expansion_grid(exp, np.zeros(1))[0] - 1.0) < 1e-12


def test_kernel_demo_coarse_run_emits_row():
    rows = run_kernel_demo("square", node_counts=(4,))
    assert len(rows) == 1


def test_kernel_demo_unknown_target():
    with pytest.raises(ValidationError):
        run_kernel_demo("sin")


def _multiplicative_series_csv(path, n=120, period=12):
    pattern = 1.0 + 0.2 * np.sin(2 * np.pi * np.arange(period) / period)
    pattern /= pattern.mean()
    trend = 50.0 + 0.3 * np.arange(n)
    vals = trend * np.tile(pattern, n // period)
    rows = ["t,y"] + [f"{i},{float(v)!r}" for i, v in enumerate(vals)]
    path.write_text("\n".join(rows) + "\n")


def test_csv_trend_experiment_end_to_end(tmp_path):
    src = tmp_path / "series.csv"
    _multiplicative_series_csv(src)
    spec = get_preset("exp4-csv")
    spec.data_path = str(src)
    spec.model.h = 16
    spec.train.epochs = 10
    report = run_experiment(spec, tmp_path / "run")
    assert math.isfinite(report.mse)
    # trend units: errors should be far below the series level
    assert report.mae < 10.0


def test_csv_trend_requires_data_path():
    with pytest.raises(ValidationError, match="data_path"):
        validate_spec(get_preset("exp4-csv"))


# -- CLI surface ---------------------------------------------------------------


def test_cli_list_experiments(capsys):
    assert cli.main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("exp1", "exp2-gap", "exp2-disk", "exp3-surface",
                 "exp4-csv", "exp5-lambda", "exp5-grid", "intro-spike"):
        assert name in out


def test_readme_cli_block_parses():
    # Every command README's CLI section shows is one the parser accepts, so a
    # retired verb or flag cannot linger in the docs.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?```bash\n(.*?)```", readme, re.S | re.M).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "cauchynet" for argv in commands)
    rejected = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            rejected.append(shlex.join(argv))
    assert rejected == []


def test_cli_train_with_overrides(tmp_path, capsys):
    rc = cli.main(["train", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "n_samples=60", "--set", "model.h=8",
                   "--set", "train.epochs=2", "--set", "baseline=false"])
    assert rc == 0
    assert (tmp_path / "exp1" / "manifest.json").exists()


def test_cli_validation_error_exit_code(tmp_path, capsys):
    rc = cli.main(["train", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "model.h=0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_set_key(tmp_path, capsys):
    rc = cli.main(["train", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "nope=3"])
    assert rc == 2


def test_model_init_is_an_unknown_field(tmp_path, capsys):
    # the network has one initializer, so no config field chooses it
    doc = tiny_spec().to_dict()
    doc["model"]["init"] = "xavier"
    with pytest.raises(ValidationError, match=re.escape("unknown config fields: ['model.init']")):
        ExperimentSpec.from_dict(doc)
    rc = cli.main(["train", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "model.init=elliptical"])
    assert rc == 2
    assert "unknown config fields: ['model.init']" in capsys.readouterr().err
    assert not any(tmp_path.rglob("*"))


def _run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def _run_in_fresh_interpreter(outdir, block_builtin_sha256=False):
    """Import the CLI and run tiny_spec() into outdir in a new interpreter.

    Returns whether hashlib was loaded after the import and whether
    _hashlib and hashlib were loaded after the run."""
    script = "\n".join([
        "import json, sys",
        'sys.modules["_sha2"] = sys.modules["_sha256"] = None' if block_builtin_sha256 else "",
        "import cauchynet.cli",
        "from cauchynet.experiments import ExperimentSpec, run_experiment",
        "after_import = 'hashlib' in sys.modules",
        "run_experiment(ExperimentSpec.from_dict(json.loads(sys.argv[1])), sys.argv[2])",
        "print(json.dumps([after_import, '_hashlib' in sys.modules, 'hashlib' in sys.modules]))",
    ])
    out = _run_python("-c", script, json.dumps(tiny_spec().to_dict()), str(outdir))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _assert_manifest_digests_are_hashlib_sha256(outdir):
    files = json.loads((outdir / "manifest.json").read_text())["files"]
    assert "checkpoint.json" in files
    assert files == {f: hashlib.sha256((outdir / f).read_bytes()).hexdigest() for f in files}


def test_import_leaves_hashlib_unloaded(tmp_path):
    # hashlib maps OpenSSL, 3.5 MB resident; the manifest hashes its files with
    # CPython's built-in SHA-256 where the build has one, so a run never maps it
    hashlib_after_import, openssl_after_run, _ = _run_in_fresh_interpreter(tmp_path)
    assert not hashlib_after_import
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert not openssl_after_run
    _assert_manifest_digests_are_hashlib_sha256(tmp_path)


def test_manifest_digests_fall_back_to_hashlib(tmp_path):
    # a build without _sha2 or _sha256 hashes through hashlib, to the same digests
    *_, hashlib_after_run = _run_in_fresh_interpreter(tmp_path, block_builtin_sha256=True)
    assert hashlib_after_run
    _assert_manifest_digests_are_hashlib_sha256(tmp_path)


@pytest.mark.parametrize("spec", [
    tiny_spec(),
    tiny_spec(name="tiny-2d", generator="surface2d",
              model=ModelSpec(h=16, init_major=1.8, init_minor=0.8)),
], ids=["m=1", "m=2"])
def test_ok_manifest_certifies_the_hidden_values(tmp_path, spec):
    run_experiment(spec, tmp_path)
    bound = json.loads((tmp_path / "manifest.json").read_text())["min_abs_im_B"]
    net, _ = mdl.load_checkpoint(tmp_path / "checkpoint.json")
    assert bound == np.abs(net.B.imag).min() > 0
    # epsilon is real, so |x_i + B_ki + eps| >= |Im B_ki| for every real x_i
    _, hidden, _ = mdl.forward_batch(net, build_dataset(spec).test_x)
    assert np.abs(hidden).max() <= (1 / bound) ** net.m * (1 + 1e-12)


def test_python_dash_m_runs_the_cli():
    listed = _run_python("-m", "cauchynet", "list-experiments")
    assert listed.returncode == 0 and "exp2-disk" in listed.stdout
    refused = _run_python("-m", "cauchynet", "train", "--preset", "nope")
    assert refused.returncode == 2
    assert "error: unknown preset 'nope'" in refused.stderr
    assert "Traceback" not in refused.stderr


def test_cli_config_file_and_env_seed(tmp_path, capsys, monkeypatch):
    cfg = tiny_spec().to_dict()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    # the recipe alone sets a run's seed: the variable is not read
    monkeypatch.setenv("CAUCHYNET_SEED", "77")
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    assert rc == 0
    ckpt = json.loads((tmp_path / "a" / "tiny" / "checkpoint.json").read_text())
    assert ckpt["seed"] == cfg["train"]["seed"] != 77
    rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                   "--set", "train.seed=77"])
    assert rc == 0
    ckpt = json.loads((tmp_path / "b" / "tiny" / "checkpoint.json").read_text())
    assert ckpt["seed"] == 77


def test_cli_evaluate_round_trip(tmp_path, capsys):
    assert cli.main(["train", "--preset", "exp1", "--out", str(tmp_path),
                     "--set", "n_samples=60", "--set", "model.h=8",
                     "--set", "train.epochs=2", "--set", "baseline=false"]) == 0
    rc = cli.main(["evaluate", "--preset", "exp1",
                   "--set", "n_samples=60", "--set", "model.h=8",
                   "--set", "train.epochs=2", "--set", "baseline=false",
                   "--checkpoint", str(tmp_path / "exp1" / "checkpoint.json")])
    assert rc == 0
    assert "test mse=" in capsys.readouterr().out


def test_cli_impute_gap_preset(tmp_path, capsys):
    rc = cli.main(["train", "--preset", "exp2-gap", "--out", str(tmp_path),
                   "--set", "n_samples=120", "--set", "model.h=8",
                   "--set", "train.epochs=2"])
    assert rc == 0
    assert (tmp_path / "exp2-gap" / "imputation_errors.csv").exists()


def test_cli_divergence_exit_code(tmp_path, capsys, monkeypatch):
    import cauchynet.experiments as xp_mod
    from cauchynet.errors import NonFiniteError

    def boom(spec, outdir):
        raise NonFiniteError("training diverged at epoch 3", epoch=3)

    monkeypatch.setattr(xp_mod, "run_experiment", boom)
    monkeypatch.setattr(cli.xp, "run_experiment", boom)
    rc = cli.main(["train", "--preset", "exp1", "--out", str(tmp_path)])
    assert rc == 3
    assert "divergence" in capsys.readouterr().err


def test_cli_kernel_demo(tmp_path, capsys):
    rc = cli.main(["kernel-demo", "--target", "square", "--nodes", "16", "32",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "kernel-demo" / "kernel_demo.csv").exists()


def test_cli_kernel_demo_inverse_shift_default_contour(tmp_path, capsys):
    # the target's pole lies outside the default a=2, b=1 contour
    rc = cli.main(["kernel-demo", "--target", "inverse-shift", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "kernel-demo" / "kernel_demo.csv").read_text().splitlines()
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(errors) == 4 and errors[-1] < 1e-12


def test_cli_decompose(tmp_path, capsys):
    n, period = 36, 6
    pattern = [0.8, 0.9, 1.0, 1.1, 1.2, 1.0]
    values = [5.0 * pattern[i % period] for i in range(n)]
    plain = "t,y\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values))
    # a spreadsheet's UTF-8 byte-order mark before the first column's name
    bom = "\ufeffy,t\n" + "".join(f"{v},{i}\n" for i, v in enumerate(values))
    for name, text in (("plain", plain), ("bom", bom)):
        src = tmp_path / f"{name}.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / f"{name}-dec.csv"
        rc = cli.main(["decompose", "--data", str(src), "--column", "y",
                       "--period", str(period), "--out", str(out)])
        assert rc == 0, name
        lines = out.read_text().splitlines()
        assert lines[0] == "t,value,trend,seasonal,residual"
        assert len(lines) == n + 1


def test_cli_missing_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["decompose", "--data", str(tmp_path / "nope.csv"),
                   "--period", "4"])
    assert rc == 4


@pytest.mark.parametrize("content,message", [
    (b"t,y\n0,1\n1,\xff2\n", "row 2: bytes that are not UTF-8"),
    (b"t,y\n0,1\n1,nan\n2,3\n", "row 2: 'y' value 'nan' is not finite"),
], ids=["non-utf8", "nan-cell"])
@pytest.mark.parametrize("command", ["decompose", "exp4-csv"])
def test_cli_bad_csv_is_parse_error(tmp_path, capsys, content, message, command):
    src = tmp_path / "series.csv"
    src.write_bytes(content)
    argv = (["decompose", "--data", str(src), "--period", "12"] if command == "decompose" else
            ["train", "--preset", "exp4-csv", "--set", f"data_path={json.dumps(str(src))}"])
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert f"error: {src}: {message}" in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == [src]


def test_cli_ablate_lambda(tmp_path, capsys):
    rc = cli.main(["ablate-lambda", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "n_samples=60", "--set", "model.h=8",
                   "--set", "train.epochs=2", "--set", "baseline=false",
                   "--set", "lambdas=[0.1,1.0]"])
    assert rc == 0
    lines = (tmp_path / "exp1" / "lambda_ablation.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2


def test_cli_sweep_axes(tmp_path, capsys):
    rc = cli.main(["sweep", "--preset", "exp1", "--out", str(tmp_path),
                   "--set", "train.epochs=2", "--set", "baseline=false",
                   "--set", "grid_hidden=[8,16]", "--set", "grid_sizes=[40,60]",
                   "--set", "grid_lrs=[0.01]", "--set", "grid_wds=[0.0001]"])
    assert rc == 0
    lines = (tmp_path / "exp1" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5


def _flags(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def test_cli_sweep_and_ablation_take_only_spec_flags():
    # seeds, sweep axes and penalty weights come in only through the checked
    # spec; kernel-demo's contour and grid are constants
    spec_parser = argparse.ArgumentParser()
    cli._add_spec_args(spec_parser)
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name in ("train", "ablate-lambda", "sweep"):
        assert _flags(commands[name]) == _flags(spec_parser) | {"--out"}, name
    assert _flags(commands["evaluate"]) == _flags(spec_parser) | {"--checkpoint"}
    assert _flags(commands["kernel-demo"]) == {"-h", "--help", "--target", "--nodes", "--out"}


def test_cli_ablate_lambda_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablate-lambda", "--preset", "exp5-lambda", "--out", str(tmp_path),
                  "--set", "n_samples=60", "--set", "train.epochs=1",
                  "--lambdas", "0.1"])
    assert exc.value.code == 2
    assert not any(tmp_path.rglob("*"))


@pytest.mark.parametrize("argv", [
    ["train", "--preset", "exp1", "--seed", "3"],
    ["sweep", "--preset", "exp5-grid", "--axes", "h"],
    ["evaluate", "--preset", "exp1", "--checkpoint", "ckpt.json", "--out", "x"],
], ids=["train-seed", "sweep-axes", "evaluate-out"])
def test_cli_second_ways_in_are_gone(tmp_path, capsys, monkeypatch, argv):
    # the seed and the grid are set by --set alone; evaluate writes no file
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--set", "n_samples=60", "--set", "train.epochs=1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.rglob("*"))


@pytest.mark.parametrize("argv", [
    ["--a", "2"], ["--b", "1"], ["--center-re", "0"], ["--center-im", "0"],
    ["--lo", "-1"], ["--hi", "1"], ["--grid", "201"], ["--nodes", "16,32"],
], ids=["a", "b", "center-re", "center-im", "lo", "hi", "grid", "nodes-string"])
def test_cli_kernel_demo_refuses_contour_flags(tmp_path, capsys, argv):
    # the contour and grid are constants, even at their old defaults, and
    # --nodes takes its counts as separate integers
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel-demo", *argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: cauchynet") and "Traceback" not in err
    assert not any(tmp_path.rglob("*"))


def test_cli_sweep_out_of_range_cells_stop_before_compute(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(xp, "prepare", lambda spec: pytest.fail("a cell was built"))
    rc = cli.main(["sweep", "--preset", "exp5-grid", "--out", str(tmp_path),
                   "--set", "grid_hidden=[8]", "--set", "grid_sizes=[4]",
                   "--set", "grid_lrs=[0.01]", "--set", "grid_wds=[0.0]"])
    assert rc == 2
    assert "n_samples must be at least 10" in capsys.readouterr().err
    assert not any(tmp_path.rglob("*"))


def _bad_checkpoint_args(tmp_path):
    path = tmp_path / "ckpt.json"
    mdl.save_checkpoint(mdl.init_elliptical(8, 1, Rng(1)),
                        ScalerState(0.0, 1.0, 0.0, 1.0), path)
    doc = json.loads(path.read_text())
    doc["C_im"] = [0.5]
    path.write_text(json.dumps(doc))
    return ["evaluate", "--preset", "exp1", "--checkpoint", str(path)]


def _unknown_train_key_args(tmp_path):
    cfg = tiny_spec().to_dict()
    cfg["train"]["bogus"] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["train", "--config", str(path)]


def _lambda_alias_config_args(tmp_path):
    cfg = tiny_spec().to_dict()
    cfg["train"]["lambda"] = cfg["train"].pop("lam")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return ["train", "--config", str(path)]


def _preset_and_config_args(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_spec().to_dict()))
    return ["train", "--preset", "exp2-disk", "--config", str(path)]


def _series_csv(tmp_path, n):
    path = tmp_path / f"series{n}.csv"
    path.write_text("t,y\n" + "".join(f"{i},{i + 1.0}\n" for i in range(n)))
    return str(path)


def _nan_cell_csv(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,y\n0,1\n1,nan\n2,3\n")
    return str(path)


@pytest.mark.parametrize("make_args,code", [
    (_bad_checkpoint_args, 4),
    (lambda tmp: ["train", "--preset", "exp1", "--set", 'model.h="abc"'], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "train.epochs=1.5"], 2),
    (_unknown_train_key_args, 2),
    (_lambda_alias_config_args, 2),
    (_preset_and_config_args, 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "baseline_lr=0.001"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "train.lambda=0.1"], 2),
    (lambda tmp: ["sweep", "--preset", "exp5-grid", "--set", "grid_hidden=[8]",
                  "--set", "grid_sizes=[2]", "--set", "grid_lrs=[0.01]",
                  "--set", "grid_wds=[0]"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", 'fractions=["a",0.25,0.25]'], 2),
    (lambda tmp: ["train", "--preset", "exp2-disk", "--set", 'mask.radius="x"'], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "scaler_range=[0.5]"], 2),
    (lambda tmp: ["ablate-lambda", "--preset", "exp5-lambda", "--set", "lambdas=a,b"], 2),
    (lambda tmp: ["sweep", "--preset", "exp5-grid", "--set", "grid_hidden=x"], 2),
    (lambda tmp: ["kernel-demo", "--nodes", "2"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "train.lr0=NaN"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "model.epsilon=NaN"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "scaler_range=[0, Infinity]"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "fractions=[1.0,0.0,0.0]"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "fractions=[0.0,0.5,0.5]"], 2),
    (lambda tmp: ["train", "--preset", "exp2-gap", "--set", "masked_fractions=[0.001,0.999]"], 2),
    (lambda tmp: ["train", "--preset", "exp1", "--set", "n_samples=10",
                  "--set", "fractions=[0.5,0.5,0.0]"], 2),
    (lambda tmp: ["decompose", "--data", _series_csv(tmp, 3), "--period", "1"], 2),
    (lambda tmp: ["decompose", "--data", _series_csv(tmp, 3), "--period", "12"], 2),
    (lambda tmp: ["train", "--preset", "exp4-csv",
                  "--set", f"data_path={json.dumps(_series_csv(tmp, 3))}"], 2),
    (lambda tmp: ["train", "--preset", "exp4-csv", "--set", "period=2",
                  "--set", f"data_path={json.dumps(_series_csv(tmp, 4))}"], 2),
    (lambda tmp: ["train", "--preset", "exp4-csv",
                  "--set", f"data_path={json.dumps(_nan_cell_csv(tmp))}"], 4),
    (lambda tmp: ["train", "--preset", "exp2-disk", "--set", "mask.radius=1e-9"], 2),
    (lambda tmp: ["sweep", "--preset", "exp4-csv",
                  "--set", f"data_path={json.dumps(_series_csv(tmp, 240))}"], 2),
], ids=["bad-checkpoint", "set-h-string", "set-epochs-float", "config-unknown-key",
        "config-lambda-alias", "preset-and-config", "set-baseline-lr", "set-lambda-alias",
        "sweep-all-cells-invalid", "set-fractions-string", "set-mask-radius-string",
        "set-scaler-range-short",
        "lambdas-string", "hidden-string", "nodes-below-4", "set-lr0-nan", "set-epsilon-nan",
        "set-scaler-range-infinite", "empty-val-and-test", "empty-train",
        "empty-masked-train", "empty-test", "decompose-period-1",
        "decompose-short-series", "csv-trend-short-series", "csv-trend-two-trend-points",
        "csv-nan-cell", "mask-hides-no-samples", "sweep-csv-trend"])
def test_cli_exit_codes(tmp_path, capsys, make_args, code):
    argv = make_args(tmp_path)
    if argv[0] != "evaluate":              # evaluate writes no file, so takes no --out
        argv += ["--out", str(tmp_path / "runs")]
    assert cli.main(argv) == code
    assert "error:" in capsys.readouterr().err
    # a refused command writes no artifact and leaves no directory
    assert list((tmp_path / "runs").rglob("*")) == []


# The ids name each case as the messages of the element checks that predate
# the type-hint checker did; the messages are now "<path> must be <type>".
@pytest.mark.parametrize("field,value,message", [
    pytest.param("fractions", (0.5, "a", 0.25), "fractions[1] must be float, got 'a'",
                 id="fractions-value0-fractions must hold numbers"),
    pytest.param("lambdas", (0.1, None), "lambdas[1] must be float, got None",
                 id="lambdas-value1-lambdas must hold numbers"),
    pytest.param("grid_hidden", (32, 64.0), "grid_hidden[1] must be int, got 64.0",
                 id="grid_hidden-value2-grid_hidden must hold integers"),
    pytest.param("grid_sizes", (True,), "grid_sizes[0] must be int, got True",
                 id="grid_sizes-value3-grid_sizes must hold integers"),
    pytest.param("mask", {"kind": "disk", "radius": "x"}, "mask.radius must be float, got 'x'",
                 id="mask-value4-mask.radius must be a number"),
    pytest.param("mask", {"kind": "disk", "radius": 0.3, "center": [0.0]},
                 "mask.center must be tuple[float, float], got [0.0]",
                 id="mask-value5-mask.center must be two numbers"),
    pytest.param("mask", {"kind": "intervals", "half_width": [0.1]},
                 "mask.half_width must be float, got [0.1]",
                 id="mask-value6-mask.half_width must be a number"),
    pytest.param("mask", {"kind": "intervals", "half_width": 0.1, "centers": ["a"]},
                 "mask.centers must be str | tuple[float, ...], got ['a']",
                 id="mask-value7-mask.centers must be"),
    pytest.param("mask", {"kind": "intervals", "half_width": 0.1, "radius": 1.0},
                 "unknown config fields: ['mask.radius']",
                 id="mask-value8-unknown intervals mask fields: ['radius']"),
    pytest.param("mask", {"kind": ["disk"]}, "mask.kind must be 'intervals' | 'disk', got ['disk']",
                 id="mask-value9-unknown mask kind"),
])
def test_spec_rejects_mistyped_elements(field, value, message):
    spec = tiny_spec(**{field: value})
    with pytest.raises(ValidationError, match=re.escape(message)):
        validate_spec(spec)
