"""Adam over flat real parameter buffers, the LR schedule, and the trainer.

Both network types train through the same loop; a `Trainable` bundles the
model with its batch-gradient and prediction callables.  A trainable model
keeps every parameter in one flat float64 buffer, `model.params`, and
binds its weight arrays once as views of it, so the optimizer updates the
buffer in place and never copies parameters out or back; gradients come
back as vectors of the same layout.  All shuffling derives from the config seed, so a run is
reproducible end to end.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .complex_linalg import Rng, derive_seed
from .errors import NonFiniteError, ValidationError
from .fileio import _check, write_csv
from .workers import Pipeline

_SHUFFLE_STREAM = 0x5A
_BETA1, _BETA2, _EPS_ADAM = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's moments and step count."""
    m1: np.ndarray
    m2: np.ndarray
    t: int = 0

    @classmethod
    def for_size(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int = 32
    lr0: float = 0.01
    lr_decay_factor: float = 0.5
    lr_decay_every: int = 100
    weight_decay: float = 1e-4
    lam: float = 0.1          # imaginary-error penalty weight
    seed: int = 10

    def validate(self) -> list[str]:
        try:
            _check(TrainConfig, asdict(self), "")
        except ValidationError as exc:
            return exc.problems
        problems = [f"{name} must be at least 1"
                    for name in ("epochs", "batch_size", "lr_decay_every")
                    if getattr(self, name) < 1]
        if self.lr0 <= 0:
            problems.append("lr0 must be positive")
        if not (0 < self.lr_decay_factor <= 1):
            problems.append("lr_decay_factor must be in (0, 1]")
        if self.weight_decay < 0:
            problems.append("weight_decay must be nonnegative")
        if self.lam < 0:
            problems.append("lam must be nonnegative")
        return problems


@dataclass
class TrainLogEntry:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float
    wall_ms: float


@dataclass
class TrainLog:
    entries: list[TrainLogEntry] = field(default_factory=list)

    def write_csv(self, path) -> None:
        """epoch,lr,train_loss,val_loss rows.

        wall_ms, the only nondeterministic field, stays out, so the file is
        byte-reproducible.  A log trained with validate=False carries no val
        loss (NaN) and raises ValueError instead of writing a NaN column;
        a validated log never holds a NaN, which raises divergence.
        """
        if any(math.isnan(r.val_loss) for r in self.entries):
            raise ValueError("the log has no val loss: it was trained with validate=False")
        cols = ["lr", "train_loss", "val_loss"]
        write_csv(path, ["epoch"] + cols,
                  ([r.epoch] + [repr(getattr(r, c)) for c in cols] for r in self.entries))


@dataclass
class Trainable:
    """A model plus the callables the trainer needs.

    batch_gradient(model, X, y, lam) -> (LossValue, flat gradient vector)
    predict(model, X)                -> (y array, e array)

    The gradient vector may be a buffer that the next batch_gradient call
    overwrites: the trainer passes it to `adam_step` before that call.
    """
    model: object
    batch_gradient: Callable
    predict: Callable


def lr_at(config: TrainConfig, epoch: int) -> float:
    """lr0 * factor^(epoch // decay_every)."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return config.lr0 * config.lr_decay_factor ** (epoch // config.lr_decay_every)


def adam_step(model, grad_vec: np.ndarray, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """One Adam update with bias correction of `model.params`, in place.

    Weight decay couples as classic L2: it is added to the raw gradient
    before the moment updates.  A non-finite moment or update raises
    NonFiniteError and leaves the parameters as they were: a finite gradient
    past ~4e155 overflows the second moment, which would freeze its
    coordinate's step at 0.
    """
    p = model.params
    g = np.asarray(grad_vec, dtype=float)
    if g.shape != p.shape:
        raise ValueError("gradient and parameter vectors differ in shape")
    state.t += 1
    # An overflow raises where it happens, at no extra pass over the arrays;
    # NaN or inf in the gradient shows up in `new`.
    try:
        with np.errstate(over="raise", invalid="raise"):
            if weight_decay:
                g = g + weight_decay * p
            state.m1 *= _BETA1
            state.m1 += (1 - _BETA1) * g
            state.m2 *= _BETA2
            state.m2 += (1 - _BETA2) * g * g
            m_hat = state.m1 / (1 - _BETA1 ** state.t)
            denom = np.sqrt(state.m2 / (1 - _BETA2 ** state.t)) + _EPS_ADAM
            new = p - lr * m_hat / denom
    except FloatingPointError as exc:
        raise NonFiniteError(f"Adam moment or parameter update: {exc}") from None
    if not np.isfinite(new).all():
        raise NonFiniteError("parameter update is non-finite")
    p[...] = new


def train(trainable: Trainable, dataset, config: TrainConfig,
          epoch_callback: Optional[Callable] = None, *,
          validate: bool = True) -> TrainLog:
    """Shuffled minibatch Adam on the mean batch loss.

    Per-epoch shuffle order comes from a child seed of (config.seed, epoch),
    so evaluation callbacks cannot perturb the trajectory.  Raises
    NonFiniteError with the failing epoch and the partial log if the run
    diverges.  epoch_callback(epoch, model) runs after each epoch's steps,
    with the parameters from the end of that epoch.

    Epoch e's val loss is computed by a `workers.Pipeline`: in a forked
    child while epoch e + 1 trains, where a slot is free, or else in this
    process at the end of epoch e.  The child runs the same predict and
    loss expression on the same pinned BLAS, so the log is the same either
    way.  A divergence of epoch e's val loss is raised once epoch e + 1's
    steps are done, ahead of any divergence in those steps, as
    "training diverged at epoch e" with entries 0..e-1.  So
    epoch_callback(e) may run for an epoch whose val loss then diverges,
    and an epoch's wall_ms does not count a val loss computed in the child.

    With validate=False no val loss is computed: nothing forks, the val
    split is never predicted, and every entry's val_loss is NaN.  The steps
    and the log's other fields are those of a validated run; a divergence
    is one of the steps, raised at its own epoch.
    """
    problems = config.validate()
    if problems:
        raise ValueError("; ".join(problems))
    n = len(dataset.train_y)
    if n < 1 or len(dataset.val_y) < 1:
        raise ValueError("train and val splits must be nonempty")

    model = trainable.model
    state = AdamState.for_size(len(model.params))
    log = TrainLog()

    def val_loss(params):
        model.params[...] = params       # in this process, params is model.params
        yv, ev = trainable.predict(model, dataset.val_x)
        return float(((yv - dataset.val_y) ** 2).mean()
                     + config.lam * (ev ** 2).mean())

    def diverged(epoch, exc):
        return NonFiniteError(f"training diverged at epoch {epoch}: {exc}",
                              epoch=epoch, partial_log=log)

    def record(epoch, lr, train_loss, wall_ms):
        """Log an epoch once its val loss, if any, is back from the evaluator."""
        loss = math.nan
        if validate:
            try:
                loss = evaluator.collect()
            except NonFiniteError as exc:
                raise diverged(epoch, exc) from None
        log.entries.append(TrainLogEntry(epoch, lr, train_loss, loss, wall_ms))

    pending = None                        # record() arguments of the previous epoch
    with Pipeline(val_loss) if validate else nullcontext() as evaluator:
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            lr = lr_at(config, epoch)
            order = Rng(derive_seed(config.seed, _SHUFFLE_STREAM, epoch)).permutation(n)
            xs, ys = dataset.train_x[order], dataset.train_y[order]
            batch_losses, failed = [], None
            try:
                for start in range(0, n, config.batch_size):
                    stop = start + config.batch_size
                    lv, gvec = trainable.batch_gradient(
                        model, xs[start:stop], ys[start:stop], config.lam)
                    adam_step(model, gvec, state, lr, config.weight_decay)
                    batch_losses.append(lv.total)
            except NonFiniteError as exc:
                failed = exc
            if pending is not None:
                record(*pending)          # the previous epoch's divergence wins
            if failed is not None:
                raise diverged(epoch, failed)
            if validate:
                evaluator.submit(model.params)
            pending = (epoch, lr, float(np.mean(batch_losses)),
                       (time.perf_counter() - t0) * 1e3)
            if epoch_callback is not None:
                epoch_callback(epoch, model)
        record(*pending)
    return log
