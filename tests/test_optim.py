import copy
import math
import os
import pickle

import numpy as np
import pytest

from cauchynet import workers
from cauchynet.baseline import (MlpModel, init_mlp, load_mlp_checkpoint,
                                mlp_batch_gradient, mlp_trainable, save_mlp_checkpoint)
from cauchynet.complex_linalg import Rng, derive_seed
from cauchynet.data import (ScalerState, SplitDataset, scaler_apply, scaler_fit,
                            target_intro_spike)
from cauchynet.errors import NonFiniteError
from cauchynet.grad import batch_gradient, cauchynet_trainable
from cauchynet.model import (CauchyNetModel, init_elliptical, load_checkpoint,
                             save_checkpoint)
from cauchynet.optim import (_SHUFFLE_STREAM, AdamState, TrainConfig, Trainable,
                             adam_step, lr_at, train)


class ScalarModel:
    """One-parameter quadratic test problem for the optimizer."""

    def __init__(self, theta=0.0):
        self.params = np.array([theta])

    @property
    def theta(self):
        return float(self.params[0])


def test_lr_at_schedule():
    cfg = TrainConfig(lr0=0.01, lr_decay_factor=0.5, lr_decay_every=100)
    assert lr_at(cfg, 0) == pytest.approx(0.01)
    assert lr_at(cfg, 99) == pytest.approx(0.01)
    assert lr_at(cfg, 100) == pytest.approx(0.005)
    assert lr_at(cfg, 250) == pytest.approx(0.0025)


def test_lr_at_non_increasing():
    cfg = TrainConfig(lr0=0.3, lr_decay_factor=0.7, lr_decay_every=3)
    vals = [lr_at(cfg, e) for e in range(50)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_adam_zero_gradient_is_fixed_point():
    m = ScalarModel(1.5)
    st = AdamState.for_size(1)
    adam_step(m, np.zeros(1), st, lr=0.1, weight_decay=0.0)
    assert m.theta == 1.5


def test_adam_first_step_direction_and_size():
    m = ScalarModel(0.0)
    st = AdamState.for_size(1)
    g = np.array([4.0])
    adam_step(m, g, st, lr=0.05)
    # first bias-corrected step is -lr * g/(|g| + eps) up to the tiny eps
    assert m.theta == pytest.approx(-0.05, rel=1e-6)


def test_adam_scalar_convergence():
    # minimize (theta - 3)^2 from 0: 200 steps at lr 0.05 land within 1e-2
    m = ScalarModel(0.0)
    st = AdamState.for_size(1)
    for _ in range(200):
        g = np.array([2.0 * (m.theta - 3.0)])
        adam_step(m, g, st, lr=0.05)
    assert abs(m.theta - 3.0) < 1e-2


def test_adam_non_finite_update_leaves_parameters():
    from cauchynet.errors import NonFiniteError
    m = ScalarModel(1.5)
    st = AdamState.for_size(1)
    with pytest.raises(NonFiniteError):
        adam_step(m, np.array([np.nan]), st, lr=0.1)
    assert m.theta == 1.5


def test_adam_second_moment_overflow_leaves_parameters():
    # |hidden| = 1e100 at x = 0: the gradient is finite (max |g| ~ 2e199) but
    # its square overflows the second moment, which would freeze Im B's step
    from cauchynet.errors import NonFiniteError
    model = CauchyNetModel(1, 1, 0.0, [[1e-100j]], [1e-50])
    _, g = batch_gradient(model, np.zeros((1, 1)), np.zeros(1), 0.1)
    assert np.all(np.isfinite(g)) and np.abs(g).max() > 1e199
    before = model.params.copy()
    with pytest.raises(NonFiniteError):
        adam_step(model, g, AdamState.for_size(len(g)), lr=0.01)
    assert np.array_equal(model.params, before)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.1", None])
@pytest.mark.parametrize("name", ["lr0", "weight_decay", "lam"])
def test_train_config_rejects_non_finite(name, value):
    problems = TrainConfig(**{name: value}).validate()
    assert [p for p in problems if p.startswith(name)]


@pytest.mark.parametrize("value", [float("nan"), 2.0, 2.5, True, "2"])
@pytest.mark.parametrize("name", ["epochs", "batch_size", "lr_decay_every", "seed"])
def test_train_config_rejects_non_int_counts(name, value):
    problems = TrainConfig(**{name: value}).validate()
    assert problems == [f"{name} must be int, got {value!r}"]
    with pytest.raises(ValueError, match=name):
        train(None, None, TrainConfig(**{name: value}))


def test_adam_weight_decay_pulls_toward_zero():
    m = ScalarModel(2.0)
    st = AdamState.for_size(1)
    adam_step(m, np.zeros(1), st, lr=0.1, weight_decay=0.01)
    assert 0.0 < m.theta < 2.0


MODEL_KINDS = {
    "cauchynet": (lambda: init_elliptical(6, 2, Rng(4), 1.05, 0.1), ("B", "C"),
                  save_checkpoint, load_checkpoint),
    "mlp": (lambda: init_mlp(6, 2, Rng(4)), ("W1", "b1", "W2"),
            save_mlp_checkpoint, load_mlp_checkpoint),
}


COPIES ={"pickled": lambda model: pickle.loads(pickle.dumps(model)),
          "deep-copied": copy.deepcopy}


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
@pytest.mark.parametrize("stage", ["constructed", "loaded", "adam_step", *COPIES])
def test_weight_views_share_memory_with_params(tmp_path, kind, stage):
    make, names, save, load = MODEL_KINDS[kind]
    model = make()
    if stage in COPIES:
        model = COPIES[stage](model)
    elif stage == "loaded":
        save(model, ScalerState(0.0, 1.0, 0.0, 1.0), tmp_path / "ckpt.json")
        model, _ = load(tmp_path / "ckpt.json")
    elif stage == "adam_step":
        before = {name: getattr(model, name).copy() for name in names}
        adam_step(model, np.ones_like(model.params), AdamState.for_size(model.params.size),
                  lr=0.1)
        for name in names:
            assert not np.array_equal(getattr(model, name), before[name])
    for name in names:
        assert np.shares_memory(getattr(model, name), model.params), name


@pytest.mark.parametrize("make,name", [
    (lambda: CauchyNetModel(2, 1, 0.0, np.zeros((2, 2), complex), np.ones(2, complex)), "B"),
    (lambda: CauchyNetModel(2, 1, 0.0, np.zeros((2, 1), complex), np.ones(3, complex)), "C"),
    (lambda: MlpModel(np.zeros((2, 1)), np.zeros(3), np.zeros(2), 0.0), "b1"),
    (lambda: MlpModel(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), 0.0), "W2"),
], ids=["B", "C", "b1", "W2"])
def test_constructors_reject_wrong_weight_shape(make, name):
    with pytest.raises(ValueError, match=f"{name} must have shape"):
        make()


def spike_dataset(n=120, seed=3):
    xs = np.linspace(-1, 1, n)
    ys = target_intro_spike(xs)
    rng = Rng(seed)
    idx = rng.permutation(n)
    tr, va = idx[: int(0.8 * n)], idx[int(0.8 * n):]
    st = scaler_fit(ys[tr])
    return SplitDataset(xs[tr][:, None], scaler_apply(ys[tr], st),
                        xs[va][:, None], scaler_apply(ys[va], st),
                        xs[va][:, None], scaler_apply(ys[va], st), m=1)


@pytest.mark.parametrize("kind", ["cauchynet", "mlp"])
@pytest.mark.parametrize("how", sorted(COPIES))
def test_copied_model_trains_like_the_original(kind, how):
    make, trainable = {"cauchynet": (lambda: init_elliptical(8, 1, Rng(5), 1.05, 0.1),
                                     cauchynet_trainable),
                       "mlp": (lambda: init_mlp(8, 1, Rng(5)), mlp_trainable)}[kind]
    original = make()
    copied = COPIES[how](original)
    for model in (original, copied):
        train(trainable(model), spike_dataset(), TrainConfig(epochs=3, seed=5))
    assert copied.params.tobytes() == original.params.tobytes()


def textbook_adam_step(p, g, m1, m2, t, lr, weight_decay):
    """Adam with a fresh array per operation, in the trainer's order."""
    if weight_decay:
        g = g + weight_decay * p
    m1 *= 0.9
    m1 += (1 - 0.9) * g
    m2 *= 0.999
    m2 += (1 - 0.999) * g * g
    m_hat = m1 / (1 - 0.9 ** t)
    denom = np.sqrt(m2 / (1 - 0.999 ** t)) + 1e-8
    p[...] = p - lr * m_hat / denom


def reference_train(model, batch_gradient, predict, ds, cfg):
    """The training loop written out with fresh arrays: each step gathers its
    batch by fancy indexing, takes a new gradient vector and applies the
    textbook update.  Returns the log rows without wall_ms."""
    n, p = len(ds.train_y), model.params
    m1, m2, t, rows = np.zeros_like(p), np.zeros_like(p), 0, []
    for epoch in range(cfg.epochs):
        lr = lr_at(cfg, epoch)
        order = Rng(derive_seed(cfg.seed, _SHUFFLE_STREAM, epoch)).permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            lv, g = batch_gradient(model, ds.train_x[idx], ds.train_y[idx], cfg.lam)
            t += 1
            textbook_adam_step(p, g, m1, m2, t, lr, cfg.weight_decay)
            losses.append(lv.total)
        yv, ev = predict(model, ds.val_x)
        val = float(((yv - ds.val_y) ** 2).mean() + cfg.lam * (ev ** 2).mean())
        rows.append((epoch, lr, float(np.mean(losses)), val))
    return rows


@pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
@pytest.mark.parametrize("h", [1, 37])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", ["cauchynet", "mlp"])
def test_train_matches_the_fresh_array_loop(kind, m, h, weight_decay):
    """train reuses one gradient workspace and one gathered copy of the
    epoch's rows; the log and the final parameters are those of the loop
    that allocates afresh.  70 train rows in batches of 32 leave a short
    last batch."""
    rng = Rng(100 * m + h)
    x = rng.uniform_in(-1.0, 1.0, 90 * m).reshape(90, m)
    y = np.sin(3.0 * x).sum(axis=1) / m
    ds = SplitDataset(x[:70], y[:70], x[70:], y[70:], x[70:], y[70:], m=m)
    cfg = TrainConfig(epochs=4, lr0=0.01, lr_decay_every=2, weight_decay=weight_decay,
                      lam=0.1, seed=7)
    if kind == "cauchynet":
        make = lambda: init_elliptical(h, m, Rng(9), 1.2, 0.3)
        trainable, fresh_gradient = cauchynet_trainable, batch_gradient
    else:
        make = lambda: init_mlp(h, m, Rng(9))
        trainable, fresh_gradient = mlp_trainable, mlp_batch_gradient
    model, reference = make(), make()
    log = train(trainable(model), ds, cfg)
    expected = reference_train(reference, fresh_gradient, trainable(reference).predict,
                               ds, cfg)
    assert [(r.epoch, r.lr, r.train_loss, r.val_loss) for r in log.entries] == expected
    assert model.params.tobytes() == reference.params.tobytes()


def test_train_rejects_zero_epochs():
    ds = spike_dataset()
    model = init_elliptical(16, 1, Rng(1), 1.05, 0.1)
    with pytest.raises(ValueError):
        train(cauchynet_trainable(model), ds, TrainConfig(epochs=0, seed=1))


def test_train_improves_loss_by_10x():
    ds = spike_dataset()
    model = init_elliptical(64, 1, Rng(10), 1.05, 0.1)
    cfg = TrainConfig(epochs=120, lr0=0.01, weight_decay=0.0, lam=0.1, seed=10)
    log = train(cauchynet_trainable(model), ds, cfg)
    assert log.entries[-1].train_loss < log.entries[0].train_loss / 10.0


def test_train_is_deterministic_for_fixed_seed():
    cfg = TrainConfig(epochs=15, lr0=0.01, seed=42)
    logs = []
    for _ in range(2):
        ds = spike_dataset()
        model = init_elliptical(16, 1, Rng(7), 1.05, 0.1)
        logs.append(train(cauchynet_trainable(model), ds, cfg))
    a, b = logs
    assert [(r.epoch, r.lr, r.train_loss, r.val_loss) for r in a.entries] == \
           [(r.epoch, r.lr, r.train_loss, r.val_loss) for r in b.entries]


def test_trainlog_csv_round_trip(tmp_path):
    ds = spike_dataset()
    model = init_elliptical(8, 1, Rng(2), 1.05, 0.1)
    log = train(cauchynet_trainable(model), ds, TrainConfig(epochs=3, seed=2))
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,lr,train_loss,val_loss"
    assert len(lines) == 4


def test_trainlog_csv_refuses_a_log_without_val_loss(tmp_path):
    ds = spike_dataset()
    model = init_elliptical(8, 1, Rng(2), 1.05, 0.1)
    seen = []
    log = train(cauchynet_trainable(model), ds, TrainConfig(epochs=3, seed=2),
                epoch_callback=lambda e, m: seen.append(e), validate=False)
    assert seen == [0, 1, 2] and len(log.entries) == 3
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="no val loss"):
        log.write_csv(path)
    assert not path.exists()


def test_epoch_callback_sees_every_epoch():
    ds = spike_dataset()
    model = init_elliptical(8, 1, Rng(2), 1.05, 0.1)
    seen = []
    train(cauchynet_trainable(model), ds, TrainConfig(epochs=5, seed=2),
          epoch_callback=lambda e, m: seen.append(e))
    assert seen == [0, 1, 2, 3, 4]


def test_train_divergence_reports_epoch_and_partial_log():
    from cauchynet.errors import NonFiniteError
    from cauchynet.model import CauchyNetModel
    ds = spike_dataset()
    # output coefficient at the float ceiling overflows the first forward
    model = CauchyNetModel(1, 1, 0.0, np.array([[1j]]), np.array([1e308 + 0j]))
    with pytest.raises(NonFiniteError) as exc:
        train(cauchynet_trainable(model), ds, TrainConfig(epochs=3, seed=1))
    assert exc.value.epoch == 0
    assert exc.value.partial_log is not None
    assert exc.value.partial_log.entries == []


def test_imag_error_shrinks_with_penalty():
    ds = spike_dataset()
    model = init_elliptical(64, 1, Rng(10), 1.05, 0.1)
    trainable = cauchynet_trainable(model)
    _, e0 = trainable.predict(model, ds.val_x)
    start = np.abs(e0).mean()
    train(trainable, ds, TrainConfig(epochs=120, lr0=0.01, weight_decay=0.0,
                                     lam=0.1, seed=10))
    _, e1 = trainable.predict(model, ds.val_x)
    assert np.abs(e1).mean() < start


def train_with_slots(monkeypatch, slots, val_fails=None, steps_fail=None, validate=True):
    """What a caller of train() sees with `slots` process slots, when the val
    loss of epoch `val_fails` and the steps of epoch `steps_fail` raise
    NonFiniteError: the log or the error's message, epoch and partial log,
    and the (epoch, params) pairs the epoch callback saw."""
    monkeypatch.setattr(workers, "process_slots", lambda: slots)
    model = init_elliptical(8, 1, Rng(2), 1.05, 0.1)
    base = cauchynet_trainable(model)
    val_calls, steps = [], []

    def predict(m, X):                 # called once per epoch, here or in the evaluator
        val_calls.append(1)
        if len(val_calls) - 1 == val_fails:
            raise NonFiniteError("val overflow")
        return base.predict(m, X)

    def batch_gradient(m, X, y, lam):  # 96 train rows: 3 batches per epoch
        steps.append(1)
        if (len(steps) - 1) // 3 == steps_fail:
            raise NonFiniteError("step overflow")
        return base.batch_gradient(m, X, y, lam)

    seen = []
    rows = lambda log: [(r.epoch, r.lr, r.train_loss, r.val_loss) for r in log.entries]
    try:
        log = train(Trainable(model, batch_gradient, predict), spike_dataset(),
                    TrainConfig(epochs=5, seed=2),
                    epoch_callback=lambda e, m: seen.append((e, m.params.tobytes())),
                    validate=validate)
        outcome = rows(log)
    except NonFiniteError as exc:
        outcome = str(exc), exc.epoch, rows(exc.partial_log)
    # The val losses came from the evaluator, or were not computed.
    assert (val_calls == []) == (slots == 2 or not validate)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return outcome, seen


@pytest.mark.parametrize("val_fails,steps_fail,message,epoch,callbacks", [
    (2, None, "val overflow", 2, 3),
    (2, 3, "val overflow", 2, 3),      # epoch 2's val loss wins over epoch 3's steps
    (None, 3, "step overflow", 3, 3),
    (4, None, "val overflow", 4, 5),   # the last val loss, collected after the loop
])
def test_divergence_is_the_same_with_an_evaluator(monkeypatch, val_fails, steps_fail,
                                                  message, epoch, callbacks):
    serial = train_with_slots(monkeypatch, 1, val_fails, steps_fail)
    assert train_with_slots(monkeypatch, 2, val_fails, steps_fail) == serial
    (text, failed_at, entries), seen = serial
    assert text == f"training diverged at epoch {epoch}: {message}"
    assert failed_at == epoch and [r[0] for r in entries] == list(range(epoch))
    # The callback runs once an epoch's steps are done, before its val loss
    # is known: it saw epoch 2 although epoch 2's val loss diverged.
    assert [e for e, _ in seen] == list(range(callbacks))


@pytest.mark.parametrize("slots", [1, 2])
def test_unvalidated_train_diverges_only_in_its_steps(monkeypatch, slots):
    (text, epoch, entries), seen = train_with_slots(monkeypatch, slots, val_fails=0,
                                                    steps_fail=3, validate=False)
    (_, _, ref), ref_seen = train_with_slots(monkeypatch, 1, steps_fail=3)
    assert text == "training diverged at epoch 3: step overflow" and epoch == 3
    assert [r[:3] for r in entries] == [r[:3] for r in ref] and seen == ref_seen
    assert all(math.isnan(r[3]) for r in entries)


def test_epoch_callback_sees_the_same_parameters_with_an_evaluator(monkeypatch):
    serial = train_with_slots(monkeypatch, 1)
    assert train_with_slots(monkeypatch, 2) == serial
    rows, seen = serial
    assert [r[0] for r in rows] == [e for e, _ in seen] == list(range(5))
    assert len({params for _, params in seen}) == 5


def test_caller_exception_in_the_epoch_loop_reaps_the_evaluator(monkeypatch):
    monkeypatch.setattr(workers, "process_slots", lambda: 2)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    def fail(epoch, model):
        if epoch == 1:
            raise KeyError("callback")

    monkeypatch.setattr(os, "fork", counted_fork)
    model = init_elliptical(8, 1, Rng(2), 1.05, 0.1)
    with pytest.raises(KeyError):
        train(cauchynet_trainable(model), spike_dataset(), TrainConfig(epochs=5, seed=2),
              epoch_callback=fail)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
