import json
import os
import signal
import threading
import time

import pytest

from cauchynet import baseline as bl
from cauchynet import cli, workers
from cauchynet import model as mdl
from cauchynet.errors import CauchyNetError, NonFiniteError
from cauchynet.experiments import (ExperimentSpec, ModelSpec, run_experiment,
                                   run_lambda_ablation)
from cauchynet.optim import TrainConfig

TINY_BASELINE = ["train", "--preset", "exp1", "--set", "n_samples=60",
                 "--set", "model.h=8", "--set", "train.epochs=5"]


def slots(monkeypatch, n):
    monkeypatch.setattr(workers, "process_slots", lambda: n)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def pid_of(x):
    return x, os.getpid()


@pytest.mark.parametrize("n", [2, 3])
def test_results_come_back_in_input_order(monkeypatch, n):
    slots(monkeypatch, n)
    out = workers.map_forked(pid_of, range(7))
    assert [x for x, _ in out] == list(range(7))
    pids = [pid for _, pid in out]
    assert pids[0::n] == [os.getpid()] * len(pids[0::n])
    assert len(set(pids)) == n
    assert no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_one_item_or_one_slot_runs_in_the_caller(monkeypatch, n):
    slots(monkeypatch, n)
    items = range(3) if n == 1 else [0]
    assert {pid for _, pid in workers.map_forked(pid_of, items)} == {os.getpid()}


def test_other_python_threads_keep_it_serial(monkeypatch):
    slots(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        out = workers.map_forked(pid_of, range(4))
    finally:
        stop.set()
        thread.join()
    assert {pid for _, pid in out} == {os.getpid()}


@pytest.mark.parametrize("env,cpus,expected", [
    ({}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
    ({"OMP_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 4, 1),
    ({"OMP_NUM_THREADS": "1"}, 1, 1),
])
def test_process_slots_share_the_cpus_among_blas_threads(monkeypatch, env, cpus, expected):
    for var in workers._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert workers.process_slots() == expected


def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    slots(monkeypatch, 2)

    def fail_on_one(x):
        if x == 1:
            raise NonFiniteError("worker overflow", epoch=4)
        return x

    with pytest.raises(NonFiniteError, match="worker overflow") as info:
        workers.map_forked(fail_on_one, [0, 1])
    assert info.value.epoch == 4
    assert no_child_left()


def test_worker_killed_by_a_signal_names_it(monkeypatch):
    slots(monkeypatch, 2)
    caller = os.getpid()

    def killed_in_worker(x):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(CauchyNetError, match="SIGKILL"):
        workers.map_forked(killed_in_worker, [0, 1])
    assert no_child_left()


def test_caller_exception_kills_the_workers_at_once(monkeypatch):
    slots(monkeypatch, 2)

    def fail_or_sleep(x):
        if x == 0:
            raise KeyError("caller")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyError):
        workers.map_forked(fail_or_sleep, [0, 1])
    assert time.perf_counter() - start < 30
    assert no_child_left()


def test_unpicklable_worker_exception_becomes_a_library_error(monkeypatch):
    slots(monkeypatch, 2)

    class LocalError(Exception):
        pass

    def fail_on_one(x):
        if x == 1:
            raise LocalError("not importable")
        return x

    with pytest.raises(CauchyNetError, match="worker raised LocalError: not importable"):
        workers.map_forked(fail_on_one, [0, 1])
    assert no_child_left()


def tiny_baseline_spec():
    return ExperimentSpec(
        name="tiny", generator="exp1", n_samples=60, baseline=True,
        model=ModelSpec(h=8, init="elliptical", init_major=1.05, init_minor=0.1),
        train=TrainConfig(epochs=5, lr0=0.01, weight_decay=0.0, lam=0.1, seed=10))


def run_files(outdir):
    """Every file of a run except the wall-clock ones, and the manifest's
    file list and hashes without metrics.csv."""
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
             if p.name not in ("metrics.csv", "manifest.json")}
    manifest = json.loads((outdir / "manifest.json").read_text())
    hashes = {k: v for k, v in manifest["files"].items() if k != "metrics.csv"}
    return files, list(manifest["files"]), hashes, manifest["status"]


def test_workers_and_serial_write_identical_runs(tmp_path, monkeypatch):
    original = bl.mlp_batch_gradient
    calls = []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(bl, "mlp_batch_gradient", counted)
    runs, caller_calls = {}, {}
    for n in (1, 2):
        slots(monkeypatch, n)
        calls.clear()
        report = run_experiment(tiny_baseline_spec(), tmp_path / str(n))
        runs[n] = run_files(tmp_path / str(n)), report.abs_errors.tobytes()
        caller_calls[n] = len(calls)
    assert runs[1] == runs[2]
    assert caller_calls == {1: 5, 2: 0}     # the baseline trained in the worker
    assert "baseline_checkpoint.json" in runs[2][0][0]
    assert no_child_left()


def test_baseline_divergence_in_a_worker_matches_serial(tmp_path, monkeypatch, capsys):
    original = bl.mlp_batch_gradient
    calls = []

    def diverges_in_epoch_three(*args):
        calls.append(1)
        if len(calls) > 2:             # one batch per epoch: 30 train rows
            raise NonFiniteError("injected overflow")
        return original(*args)

    monkeypatch.setattr(bl, "mlp_batch_gradient", diverges_in_epoch_three)
    runs = {}
    for n in (1, 2):
        slots(monkeypatch, n)
        calls.clear()
        assert cli.main(TINY_BASELINE + ["--out", str(tmp_path / str(n))]) == 3
        assert "injected overflow" in capsys.readouterr().err
        runs[n] = run_files(tmp_path / str(n) / "exp1")
    assert runs[1] == runs[2]
    files, listed, _, status = runs[2]
    assert status == "diverged"
    assert listed == ["trainlog.csv", "predictions.csv", "checkpoint.json",
                      "baseline_trainlog.csv"]
    assert len(files["baseline_trainlog.csv"].splitlines()) == 1 + 2
    assert no_child_left()


def test_network_divergence_stops_the_baseline_worker(tmp_path, monkeypatch, capsys):
    slots(monkeypatch, 2)
    original = mdl.predict
    calls = []

    def diverges_on_third_call(model, X):
        calls.append(1)
        if len(calls) == 3:
            raise NonFiniteError("injected overflow")
        return original(model, X)

    monkeypatch.setattr(mdl, "predict", diverges_on_third_call)
    assert cli.main(TINY_BASELINE + ["--out", str(tmp_path)]) == 3
    run = tmp_path / "exp1"
    assert json.loads((run / "manifest.json").read_text())["files"].keys() == {"trainlog.csv"}
    assert sorted(p.name for p in run.iterdir()) == ["manifest.json", "trainlog.csv"]
    assert no_child_left()


def test_ablation_arms_in_workers_match_serial(tmp_path, monkeypatch):
    spec = tiny_baseline_spec()
    spec.lambdas = (0.0, 0.1, 1.0)
    out = {}
    for n in (1, 2):
        slots(monkeypatch, n)
        rows, summary = run_lambda_ablation(spec, tmp_path / str(n))
        out[n] = (rows, summary, (tmp_path / str(n) / "lambda_ablation.csv").read_bytes())
    assert out[1] == out[2]
    assert no_child_left()
