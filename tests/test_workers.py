import json
import math
import os
import select
import signal
import threading
import time

import pytest

from cauchynet import baseline as bl
from cauchynet import cli, optim, workers
from cauchynet import experiments as xp
from cauchynet import model as mdl
from cauchynet.errors import CauchyNetError, NonFiniteError, ValidationError
from cauchynet.experiments import (ExperimentSpec, ModelSpec, run_experiment,
                                   run_lambda_ablation, run_sensitivity_grid)
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


@pytest.fixture
def pipe():
    """Makes pipes through which an item run in one process tells another
    that it ran; that fixes which process takes which item without sleeps."""
    made = []

    def make():
        made.append(os.pipe())
        return made[-1]

    yield make
    for fds in made:
        for fd in fds:
            os.close(fd)


@pytest.fixture
def forks(monkeypatch, pipe):
    """Counts os.fork calls made since the last count, by this process and
    by its children, through a pipe every child inherits."""
    read_fd, write_fd = pipe()
    os.set_blocking(read_fd, False)
    real_fork = os.fork

    def counted_fork():
        os.write(write_fd, b"f")
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)

    def count():
        try:
            return len(os.read(read_fd, 1024))
        except BlockingIOError:
            return 0

    return count


def wait_for(read_fd, count=1):
    """Read count bytes from a pipe made by `pipe`, failing after 30 s without one."""
    got = 0
    while got < count:
        if not select.select([read_fd], [], [], 30)[0]:
            pytest.fail("no worker reported within 30 s")
        got += len(os.read(read_fd, count - got))


@pytest.mark.parametrize("n", [2, 3])
def test_results_come_back_in_input_order(monkeypatch, pipe, n):
    slots(monkeypatch, n)
    read_fd, write_fd = pipe()

    def run(x):
        if x == 0:
            wait_for(read_fd, 6)       # until the workers ran items 1 to 6
        else:
            os.write(write_fd, b"x")
        return pid_of(x)

    out = workers.map_forked(run, range(7))
    assert [x for x, _ in out] == list(range(7))
    pids = [pid for _, pid in out]
    # The caller ran items[0] only: a free worker took the next item each
    # time, not its stride share items[i::n].
    assert pids[0] == os.getpid() and os.getpid() not in pids[1:]
    assert len(set(pids)) <= n
    assert no_child_left()


def test_items_after_the_first_go_to_whichever_process_is_free(monkeypatch, pipe):
    slots(monkeypatch, 2)
    (took_1, tell_1), (ran_rest, tell_rest) = pipe(), pipe()

    def run(x):
        if x == 0:
            wait_for(took_1)           # until the worker has taken item 1
        elif x == 1:
            os.write(tell_1, b"x")
            wait_for(ran_rest, 4)      # until the caller ran items 2 to 5
        else:
            os.write(tell_rest, b"x")
        return pid_of(x)

    pids = [pid for _, pid in workers.map_forked(run, range(6))]
    assert pids[1] != os.getpid()
    assert pids == [os.getpid(), pids[1]] + [os.getpid()] * 4
    assert no_child_left()


def test_many_items_take_one_process_per_slot(monkeypatch, forks):
    # 20,000 four-byte indices written to a pipe before the fork would
    # overfill its 64 KiB; the shared counter holds one index at a time.
    slots(monkeypatch, 3)
    out = workers.map_forked(pid_of, range(20_000))
    assert [x for x, _ in out] == list(range(20_000))
    assert out[0][1] == os.getpid()
    assert forks() == 2 and len({pid for _, pid in out}) <= 3
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


def test_worker_exception_is_raised_in_the_caller(monkeypatch, pipe):
    slots(monkeypatch, 2)
    read_fd, write_fd = pipe()

    def fail_on_one(x):
        if x == 1:
            os.write(write_fd, b"x")
            raise NonFiniteError("worker overflow", epoch=4)
        wait_for(read_fd)
        return x

    with pytest.raises(NonFiniteError, match="worker overflow") as info:
        workers.map_forked(fail_on_one, [0, 1])
    assert info.value.epoch == 4
    assert no_child_left()


def test_worker_killed_by_a_signal_names_it(monkeypatch, pipe):
    slots(monkeypatch, 2)
    read_fd, write_fd = pipe()

    def killed_in_worker(x):
        if x == 1:
            os.write(write_fd, b"x")
            os.kill(os.getpid(), signal.SIGKILL)
        wait_for(read_fd)
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


def test_unpicklable_worker_exception_becomes_a_library_error(monkeypatch, pipe):
    slots(monkeypatch, 2)
    read_fd, write_fd = pipe()

    class LocalError(Exception):
        pass

    def fail_on_one(x):
        if x == 1:
            os.write(write_fd, b"x")
            raise LocalError("not importable")
        wait_for(read_fd)
        return x

    with pytest.raises(CauchyNetError, match="worker raised LocalError: not importable"):
        workers.map_forked(fail_on_one, [0, 1])
    assert no_child_left()


def tiny_baseline_spec():
    return ExperimentSpec(
        name="tiny", generator="exp1", n_samples=60, baseline=True,
        model=ModelSpec(h=8, init_major=1.05, init_minor=0.1),
        train=TrainConfig(epochs=5, lr0=0.01, weight_decay=0.0, lam=0.1, seed=10))


def run_files(outdir):
    """Every file of a run except the wall-clock ones, and the manifest's
    file list and hashes without metrics.csv."""
    files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
             if p.name not in ("metrics.csv", "manifest.json")}
    manifest = json.loads((outdir / "manifest.json").read_text())
    hashes = {k: v for k, v in manifest["files"].items() if k != "metrics.csv"}
    return files, list(manifest["files"]), hashes, manifest["status"]


def test_workers_and_serial_write_identical_runs(tmp_path, monkeypatch, pipe):
    # With 2 slots the network's fit waits until the worker has started the
    # baseline; otherwise a caller done first would take the baseline itself.
    original, original_train = bl.mlp_batch_gradient, xp.train
    caller, (started, tell) = os.getpid(), pipe()
    calls = []

    def counted(*args):
        if os.getpid() != caller:
            os.write(tell, b"x")
        calls.append(1)
        return original(*args)

    def network_waits(trainable, *args, **kwargs):
        if n == 2 and isinstance(trainable.model, mdl.CauchyNetModel):
            wait_for(started)
        return original_train(trainable, *args, **kwargs)

    monkeypatch.setattr(bl, "mlp_batch_gradient", counted)
    monkeypatch.setattr(xp, "train", network_waits)
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


def test_diverged_ablation_arm_is_the_first_in_lambda_order(tmp_path, monkeypatch, pipe):
    # Two slots: the caller runs lam=0 until the worker has taken lam=0.3,
    # and the worker stays in lam=0.3 until the caller has run lam=0.5, so
    # the later arm fails first.
    spec = tiny_baseline_spec()
    spec.lambdas = (0.0, 0.3, 0.5)
    original = xp.train
    (took_3, tell_3), (ran_5, tell_5) = pipe(), pipe()

    def diverge_on_03_and_05(trainable, dataset, config, **kwargs):
        lam = config.lam
        if fanned and lam == 0.0:
            wait_for(took_3)
        elif fanned and lam == 0.3:
            os.write(tell_3, b"x")
            wait_for(ran_5)
        elif fanned and lam == 0.5:
            os.write(tell_5, b"x")
        if lam in (0.3, 0.5):
            raise NonFiniteError(f"arm lam={lam} diverged")
        return original(trainable, dataset, config, **kwargs)

    monkeypatch.setattr(xp, "train", diverge_on_03_and_05)
    for fanned in (False, True):
        slots(monkeypatch, 1 + fanned)
        with pytest.raises(NonFiniteError, match=r"^arm lam=0\.3 diverged$"):
            run_lambda_ablation(spec, tmp_path)
    assert not (tmp_path / "lambda_ablation.csv").exists()
    assert no_child_left()


def sweep_serial_and_fanned(tmp_path, monkeypatch, pipe, hidden, diverging):
    """The outcome of a sweep at n=60 with 1 and 2 slots, which must be equal:
    its row reprs and sweep.csv, or its exception.  The cells of width in
    `diverging` raise NonFiniteError; with 2 slots the width-4 cell runs in
    the worker while the caller waits in the widest cell."""
    original = xp._sweep_cell
    ran_4, tell_4 = pipe()

    def cell(spec, h, *args):
        if fanned and h == max(hidden):
            wait_for(ran_4)
        elif fanned and h == 4:
            os.write(tell_4, b"x")
        if h in diverging:
            raise NonFiniteError(f"injected overflow at h={h}")
        return original(spec, h, *args)

    monkeypatch.setattr(xp, "_sweep_cell", cell)
    out = {}
    for fanned in (False, True):
        slots(monkeypatch, 1 + fanned)
        outdir = tmp_path / str(fanned)
        try:
            rows = run_sensitivity_grid(tiny_baseline_spec(), hidden=hidden,
                                        data_sizes=[60], lrs=[0.01], wds=[0.0],
                                        outdir=outdir)
            out[fanned] = [repr(r) for r in rows], (outdir / "sweep.csv").read_text()
        except (NonFiniteError, ValidationError) as exc:
            out[fanned] = type(exc), str(exc)
    assert no_child_left()
    assert out[False] == out[True]
    return out[True]


def test_sweep_cells_in_workers_match_serial(tmp_path, monkeypatch, pipe):
    _, csv = sweep_serial_and_fanned(tmp_path, monkeypatch, pipe, [0, 4, 8, 12], {4})
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert [(r[0], r[5]) for r in rows] == [               # axis order
        ("0", "failed: model.h must be at least 1"),
        ("4", "failed: injected overflow at h=4"), ("8", ""), ("12", "")]
    assert all(math.isfinite(float(r[4])) for r in rows[2:])


def test_sweep_with_every_cell_failed_raises_the_same_in_workers(tmp_path, monkeypatch, pipe):
    assert sweep_serial_and_fanned(tmp_path, monkeypatch, pipe, [0, 4, 8], {4, 8}) == (
        NonFiniteError, "every sweep cell failed")


def short_preset(name):
    spec = xp.get_preset(name)
    spec.n_samples = {"exp2-disk": 400, "exp2-gap": 120, "intro-spike": 60}[name]
    spec.model.h, spec.train.epochs = 8, 4
    return spec


@pytest.mark.parametrize("name", ["exp2-disk", "exp2-gap"])
def test_single_fit_with_an_evaluator_writes_the_serial_run(tmp_path, monkeypatch, forks,
                                                            name):
    runs, forked = {}, {}
    for n in (1, 2):
        slots(monkeypatch, n)
        report = run_experiment(short_preset(name), tmp_path / str(n))
        runs[n] = run_files(tmp_path / str(n)), report.abs_errors.tobytes()
        forked[n] = forks()
    assert runs[1] == runs[2]
    assert {"trainlog.csv", "predictions.csv", "checkpoint.json"} <= set(runs[2][0][0])
    assert forked == {1: 0, 2: 1}           # the evaluator, once per train call
    assert no_child_left()


def test_no_evaluator_when_the_fits_fill_the_slots(tmp_path, monkeypatch, forks):
    slots(monkeypatch, 2)
    run_experiment(short_preset("intro-spike"), tmp_path / "spike")
    assert forks() == 1                     # the baseline's worker only
    spec = tiny_baseline_spec()
    spec.lambdas = (0.0, 0.1, 1.0)
    run_lambda_ablation(spec)
    assert forks() == 1
    run_sensitivity_grid(spec, hidden=[4, 8], data_sizes=[60], lrs=[0.01], wds=[0.0])
    assert forks() == 1
    spec.lambdas = (0.1,)                   # one arm: a single unvalidated fit
    run_lambda_ablation(spec)
    assert forks() == 0
    run_sensitivity_grid(spec, hidden=[8], data_sizes=[60], lrs=[0.01], wds=[0.0])
    assert forks() == 0                     # one cell: likewise no evaluator
    assert no_child_left()


def test_no_evaluator_with_an_unpinned_blas_or_other_threads(tmp_path, monkeypatch, forks):
    for var in workers._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    with monkeypatch.context() as two_cpus:
        two_cpus.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        run_experiment(short_preset("exp2-gap"), tmp_path / "unpinned")
    assert forks() == 0
    slots(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        run_experiment(short_preset("exp2-gap"), tmp_path / "thread")
    finally:
        stop.set()
        thread.join()
    assert forks() == 0
    run_experiment(short_preset("exp2-gap"), tmp_path / "free_slot")
    assert forks() == 1


def test_single_arm_ablation_divergence_matches_serial(tmp_path, monkeypatch, forks):
    # The arm computes no val loss: every val pass (val has 18 rows, test
    # 12) would overflow, and none is made.  30 train rows make one batch
    # per epoch, so the third Adam step is epoch 2's.
    spec = tiny_baseline_spec()
    spec.lambdas, spec.fractions = (0.1,), (0.5, 0.3, 0.2)
    original_predict, original_step = mdl.predict, optim.adam_step
    val_calls, steps = [], []

    def val_overflows(model, X):
        if len(X) == 18:
            val_calls.append(1)
            raise NonFiniteError("injected val overflow")
        return original_predict(model, X)

    def step_diverges_in_epoch_two(*args):
        steps.append(1)
        if len(steps) == 3:
            raise NonFiniteError("injected step overflow")
        return original_step(*args)

    monkeypatch.setattr(mdl, "predict", val_overflows)
    out = {}
    for n in (1, 2):
        slots(monkeypatch, n)
        monkeypatch.setattr(optim, "adam_step", original_step)
        out[n] = run_lambda_ablation(spec, tmp_path / str(n))
        monkeypatch.setattr(optim, "adam_step", step_diverges_in_epoch_two)
        steps.clear()
        with pytest.raises(NonFiniteError) as info:
            run_lambda_ablation(spec)
        out[n] += (str(info.value), info.value.epoch,
                   len(info.value.partial_log.entries), forks())
    assert out[1] == out[2]
    assert out[2][2:] == ("training diverged at epoch 2: injected step overflow", 2, 2, 0)
    assert val_calls == []
    assert no_child_left()


def test_unvalidated_fit_trains_the_validated_model(monkeypatch, forks):
    spec = tiny_baseline_spec()
    _, scaled, _ = xp.prepare(spec)
    slots(monkeypatch, 2)
    ref, ref_log = xp.fit(spec, scaled)
    assert forks() == 1                             # the validated fit's evaluator
    original, predicted = mdl.predict, []

    def counted(model, X):
        predicted.append(len(X))
        return original(model, X)

    monkeypatch.setattr(mdl, "predict", counted)
    net, log = xp.fit(spec, scaled, validate=False)
    assert forks() == 0 and predicted == []         # no val pass, here or in a child
    assert net.params.tobytes() == ref.params.tobytes()
    rows = lambda log: [(e.epoch, e.lr, e.train_loss) for e in log.entries]
    assert rows(log) == rows(ref_log) and len(log.entries) == spec.train.epochs
    assert all(math.isnan(e.val_loss) for e in log.entries)
    assert no_child_left()


def square_or_fail(x):
    if x < 0:
        raise NonFiniteError(f"negative {x}")
    return x * x, os.getpid()


@pytest.mark.parametrize("n", [1, 2])
def test_pipeline_returns_outcomes_in_submit_order(monkeypatch, n):
    slots(monkeypatch, n)
    with workers.Pipeline(square_or_fail) as pipeline:
        for x in (2, -1, 3):
            pipeline.submit(x)
        got = [pipeline.collect()]
        with pytest.raises(NonFiniteError, match="negative -1"):   # that input's outcome
            pipeline.collect()
        got.append(pipeline.collect())
        pipeline.submit(4)
        got.append(pipeline.collect())
    assert [value for value, _ in got] == [4, 9, 16]
    pids = {pid for _, pid in got}
    assert len(pids) == 1 and (pids == {os.getpid()}) == (n == 1)
    assert no_child_left()


def test_pipeline_child_runs_off_the_callers_cpu(monkeypatch):
    # Woken on the caller's CPU, the child would hold the caller up until
    # its fn returns; it may run on every CPU of the mask but the caller's.
    slots(monkeypatch, 2)
    cpus = os.sched_getaffinity(0)
    with workers.Pipeline(lambda x: os.sched_getaffinity(0)) as pipeline:
        pipeline.submit(0)
        allowed = pipeline.collect()
    assert allowed <= cpus and len(allowed) == max(1, len(cpus) - 1)
    assert os.sched_getaffinity(0) == cpus
    assert no_child_left()


def test_pipeline_child_killed_by_a_signal_names_it(monkeypatch):
    slots(monkeypatch, 2)
    with workers.Pipeline(lambda x: os.kill(os.getpid(), signal.SIGKILL)) as pipeline:
        pipeline.submit(0)
        with pytest.raises(CauchyNetError, match="SIGKILL"):
            pipeline.collect()
    assert no_child_left()


def test_pipeline_child_is_reaped_when_the_caller_raises(monkeypatch):
    slots(monkeypatch, 2)
    with pytest.raises(KeyError):
        with workers.Pipeline(square_or_fail) as pipeline:
            pipeline.submit(2)
            raise KeyError("caller")
    assert no_child_left()
