"""The benchmark's four workloads and the library layers the traced run wraps.

Each workload builds its inputs from the seed alone, runs one pass through
the library's public entry points (`run`), checks a pass against the first
pass of the same process (`check`), and keeps of each timed pass only the
figures the report needs (`summary`), so kept passes do not add to the
process's peak memory.  Why these four:

* spike-1d    - intro-spike preset plus the ReLU-MLP baseline: small arrays
                that fit in L1/L2, so time goes to per-call overhead.
* disk-2d     - exp2-disk preset: large n and the 2-D product; the
                validation forward's arrays exceed L2.
* sweep-width - exp5-grid over h in {32, 256, 612, 1224} at n=300: the same
                layers at working sets up to 10x wider, set-up repeated per
                cell, and the only path through run_sensitivity_grid.
* oracle-2d   - contour quadrature plus a least-squares kernel fit: the only
                workload that touches `kernel`, and it leaves training idle.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cauchynet import (baseline, complex_linalg, experiments, grad, kernel,
                       model, optim)
from spans import Amount
from summary import percentile


class SetupDone(Exception):
    """Raised by the set-up probe where a workload's first epoch would start."""


@dataclass
class TrainRun:
    model: object
    log: optim.TrainLog
    dataset: object          # the scaled SplitDataset the trainer saw

    @property
    def is_cauchynet(self) -> bool:
        return isinstance(self.model, model.CauchyNetModel)


class TrainCapture:
    """Keeps what `experiments.train` was given and returned.

    Used as a context manager: it replaces the module attribute with a
    wrapper that adds no work inside the training loop.
    """

    def __init__(self):
        self.runs: list[TrainRun] = []
        self._original = None

    def __enter__(self):
        self._original = experiments.train

        def train(trainable, dataset, config, **kwargs):
            log = self._original(trainable, dataset, config, **kwargs)
            self.runs.append(TrainRun(trainable.model, log, dataset))
            return log

        experiments.train = train
        return self

    def __exit__(self, *exc):
        experiments.train = self._original
        return False


def time_to_target_s(log: optim.TrainLog, target: float) -> float | None:
    """Summed epoch wall time up to the first epoch whose val loss <= target."""
    spent_ms = 0.0
    for entry in log.entries:
        spent_ms += entry.wall_ms
        if entry.val_loss <= target:
            return spent_ms / 1e3
    return None


def _training_summary(train_runs) -> dict:
    """Epoch times and training rows x epochs of the CauchyNet runs of a pass."""
    runs = [r for r in train_runs if r.is_cauchynet]
    return {
        "epoch_ms": np.array([e.wall_ms for r in runs for e in r.log.entries]),
        "rows_x_epochs": sum(len(r.dataset.train_y) * len(r.log.entries) for r in runs),
    }


def _training_rows(summaries) -> list[tuple]:
    """Report rows shared by the training workloads."""
    epoch_ms = np.concatenate([s["epoch_ms"] for s in summaries]).tolist()
    rates = [s["rows_x_epochs"] / (s["epoch_ms"].sum() / 1e3) for s in summaries]
    return [
        ("epoch_ms_p50", percentile(epoch_ms, 50), "ms", len(epoch_ms), "TrainLog wall_ms"),
        ("epoch_ms_p95", percentile(epoch_ms, 95), "ms", len(epoch_ms), "TrainLog wall_ms"),
        ("train_samples_per_s", statistics.median(rates), "1/s", len(rates),
         "train rows x epochs / training time, median pass"),
    ]


# ---------------------------------------------------------------------------
# Training presets


@dataclass
class PresetResult:
    report: experiments.MetricsReport
    train_runs: list[TrainRun]
    reloaded: tuple          # predict() of the reloaded checkpoint on test_x

    @property
    def net_run(self) -> TrainRun:
        return next(r for r in self.train_runs if r.is_cauchynet)


class PresetWorkload:
    """A preset run by experiments.run_experiment, then reloaded from its
    checkpoint the way a user would serve it."""

    def __init__(self, preset: str, seed: int, target_val_loss: float):
        self.spec = experiments.get_preset(preset)
        self.spec.train.seed = seed
        self.target = target_val_loss
        self.first_call = (experiments, "train")

    def run(self, workdir: Path, capture: TrainCapture) -> PresetResult:
        capture.runs.clear()
        report = experiments.run_experiment(self.spec, workdir)
        runs = list(capture.runs)
        test_x = next(r for r in runs if r.is_cauchynet).dataset.test_x
        loaded, _ = model.load_checkpoint(workdir / "checkpoint.json")
        return PresetResult(report, runs, model.predict(loaded, test_x))

    def check(self, res: PresetResult, ref: PresetResult | None) -> list[str]:
        problems = []
        if not math.isfinite(res.report.mae):
            problems.append(f"test_mae is not finite: {res.report.mae!r}")
        net = res.net_run
        trained = model.predict(net.model, net.dataset.test_x)
        if not all(np.array_equal(a, b) for a, b in zip(trained, res.reloaded)):
            problems.append("checkpoint round trip changed predict()")
        if ref is not None and (res.report.mae != ref.report.mae
                                or res.report.abs_errors.tobytes()
                                != ref.report.abs_errors.tobytes()):
            problems.append(f"test_mae {res.report.mae!r} differs from the "
                            f"first pass's {ref.report.mae!r}")
        if time_to_target_s(net.log, self.target) is None:
            problems.append(f"val loss never reached the target {self.target:g}")
        return problems

    def summary(self, res: PresetResult) -> dict:
        return {**_training_summary(res.train_runs),
                "time_to_target_s": time_to_target_s(res.net_run.log, self.target),
                "test_mae": res.report.mae}

    def rows(self, summaries: list[dict], pass_seconds) -> list[tuple]:
        ttt = [s["time_to_target_s"] for s in summaries]
        out = _training_rows(summaries)
        out.append(("time_to_target_s", statistics.median(ttt), "s", len(ttt),
                    f"val loss <= {self.target:g}, median pass"))
        out.append(("test_mae", summaries[-1]["test_mae"], "target units", 1,
                     "deterministic for the seed"))
        return out


# ---------------------------------------------------------------------------
# Width sweep


SWEEP_WIDTHS = (32, 256, 612, 1224)
SWEEP_ROWS = 300


@dataclass
class SweepResult:
    rows: list[tuple]
    train_runs: list[TrainRun]


class SweepWorkload:
    """exp5-grid over the hidden width at one data size and the preset's
    learning rate and weight decay."""

    def __init__(self, seed: int):
        self.spec = experiments.get_preset("exp5-grid")
        self.spec.train.seed = seed
        self.first_call = (experiments, "train")

    def run(self, workdir: Path, capture: TrainCapture) -> SweepResult:
        capture.runs.clear()
        rows = experiments.run_sensitivity_grid(
            self.spec, hidden=list(SWEEP_WIDTHS), data_sizes=[SWEEP_ROWS],
            lrs=[self.spec.train.lr0], wds=[self.spec.train.weight_decay])
        return SweepResult(rows, list(capture.runs))

    def check(self, res: SweepResult, ref: SweepResult | None) -> list[str]:
        problems = []
        if len(res.rows) != len(SWEEP_WIDTHS):
            problems.append(f"expected {len(SWEEP_WIDTHS)} cells, got {len(res.rows)}")
        for h, _, _, _, mse, note in res.rows:
            if not math.isfinite(mse) or note:
                problems.append(f"cell h={h} failed: mse={mse!r} {note}")
        if ref is not None and [repr(r) for r in res.rows] != [repr(r) for r in ref.rows]:
            problems.append("sweep rows differ from the first pass")
        return problems

    def summary(self, res: SweepResult) -> dict:
        return {**_training_summary(res.train_runs), "cells": res.rows}

    def rows(self, summaries: list[dict], pass_seconds) -> list[tuple]:
        out = _training_rows(summaries)
        out.append(("cells_per_s", statistics.median([len(SWEEP_WIDTHS) / s for s in pass_seconds]),
                    "1/s", len(pass_seconds), "median pass"))
        for h, _, _, _, mse, _ in summaries[-1]["cells"]:
            out.append((f"test_mse[h={h}]", mse, "target units^2", 1,
                        "deterministic for the seed"))
        return out


# ---------------------------------------------------------------------------
# Quadrature oracle


ORACLE_NODES = 48            # per ellipse, so 48 * 48 = 2304 centres
ORACLE_AXES = (2.0, 1.0)
ORACLE_GRID = 41
ORACLE_LS_STRIDE = 4         # least-squares fit at every 4th centre
QUAD_TOLERANCE = 1e-8        # measured ~3e-11 at 48 nodes
LS_TOLERANCE = 1e-3          # measured ~6e-5 on the held-out grid


@dataclass
class OracleResult:
    quad_values: np.ndarray
    ls_values: np.ndarray
    quad_error: float
    ls_error: float


class OracleWorkload:
    """Reconstruct f(z) = exp(a z0) cos(b z1) inside two 2x1 ellipses.

    The seed draws the frequencies a, b in [0.8, 1.2] and shifts the 41x41
    evaluation grid on [-1, 1]^2 by up to 0.1 per axis.  The least-squares
    fit uses the grid as samples and is scored on the held-out grid of cell
    midpoints.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed % 2 ** 64)      # numpy takes no negative seed
        self.freq = rng.uniform(0.8, 1.2, size=2)
        shift = rng.uniform(-0.1, 0.1, size=2)
        axis = np.linspace(-1.0, 1.0, ORACLE_GRID)
        mid = 0.5 * (axis[1:] + axis[:-1])
        self.grid = _cartesian(axis + shift[0], axis + shift[1])
        self.midgrid = _cartesian(mid + shift[0], mid + shift[1])
        self.truth = self.target(self.grid.T).real
        self.mid_truth = self.target(self.midgrid.T).real
        self.first_call = (kernel, "quadrature_expansion")

    def target(self, z):
        return np.exp(self.freq[0] * z[0]) * np.cos(self.freq[1] * z[1])

    def run(self, workdir: Path, capture: TrainCapture) -> OracleResult:
        a, b = ORACLE_AXES
        m0 = kernel.ellipse_mesh(a, b, nodes=ORACLE_NODES)
        m1 = kernel.ellipse_mesh(a, b, nodes=ORACLE_NODES)
        mesh = kernel.BoundaryMesh(m0.nodes + m1.nodes, m0.increments + m1.increments)
        quad = kernel.quadrature_expansion(self.target, mesh)
        quad_values = kernel.evaluate_expansion_grid(quad, self.grid)
        fit = kernel.fit_expansion_least_squares(
            list(zip(self.grid, self.truth)), quad.xi[::ORACLE_LS_STRIDE])
        ls_values = kernel.evaluate_expansion_grid(fit, self.midgrid)
        return OracleResult(quad_values, ls_values,
                            float(np.abs(quad_values - self.truth).max()),
                            float(np.abs(ls_values - self.mid_truth).max()))

    def check(self, res: OracleResult, ref: OracleResult | None) -> list[str]:
        problems = []
        if not res.quad_error < QUAD_TOLERANCE:
            problems.append(f"quadrature sup_error {res.quad_error!r} >= {QUAD_TOLERANCE:g}")
        if not res.ls_error < LS_TOLERANCE:
            problems.append(f"least-squares sup_error {res.ls_error!r} >= {LS_TOLERANCE:g}")
        if ref is not None and (res.quad_values.tobytes() != ref.quad_values.tobytes()
                                or res.ls_values.tobytes() != ref.ls_values.tobytes()):
            problems.append("oracle values differ from the first pass")
        return problems

    def summary(self, res: OracleResult) -> dict:
        return {"quad_error": res.quad_error, "ls_error": res.ls_error}

    def rows(self, summaries: list[dict], pass_seconds) -> list[tuple]:
        last = summaries[-1]
        return [
            ("sup_error", last["quad_error"], "abs", ORACLE_GRID ** 2,
             f"quadrature, {ORACLE_NODES}x{ORACLE_NODES} centres; gate < {QUAD_TOLERANCE:g}"),
            ("sup_error_ls", last["ls_error"], "abs", (ORACLE_GRID - 1) ** 2,
             f"least squares, held-out grid; gate < {LS_TOLERANCE:g}"),
        ]


def _cartesian(a, b) -> np.ndarray:
    return np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)


# ---------------------------------------------------------------------------


# Val-loss targets (scaled units) that the seed code reaches on every seed
# tried: spike-1d by epoch 8-97 of 500, disk-2d by epoch 55-76 of 200.
SPIKE_TARGET = 2e-3
DISK_TARGET = 1e-3

WORKLOADS = {
    "spike-1d": lambda seed: PresetWorkload("intro-spike", seed, SPIKE_TARGET),
    "disk-2d": lambda seed: PresetWorkload("exp2-disk", seed, DISK_TARGET),
    "sweep-width": SweepWorkload,
    "oracle-2d": OracleWorkload,
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)


def _forward_bytes(args, result):
    net, X = args[0], np.asarray(args[1])
    return len(X) * net.h * net.m * 16          # the complex (n, h, m) shift


def _grid_bytes(args, result):
    exp, xs = args[0], np.asarray(args[1])
    return len(xs) * exp.xi.size * 16           # the complex (n, k, N) difference


def _file_bytes(args, result):
    return os.path.getsize(args[2])             # save_checkpoint(model, scaler, path)


def _nodes(args, result):
    return len(result.theta)


# (owner, attribute, span name, amount) for every wrapped layer.  A function
# imported by name into another module is wrapped where its caller looks it
# up: grad calls its own `forward_batch`, experiments its own `train`.
LAYERS = [
    (grad, "forward_batch", "model.forward_batch.train", Amount(_forward_bytes, "bytes", "B")),
    (model, "predict", "model.predict", None),
    (grad, "batch_gradient", "grad.batch_gradient", None),
    (optim, "adam_step", "optim.adam_step", None),
    (experiments, "train", "optim.train", None),
    (complex_linalg.Rng, "permutation", "complex_linalg.permutation", None),
    (baseline, "mlp_batch_gradient", "baseline.mlp_batch_gradient", None),
    (baseline, "mlp_predict", "baseline.mlp_predict", None),
    (experiments, "build_dataset", "experiments.build_dataset", None),
    (model, "init_elliptical", "model.init_elliptical", None),
    (model, "save_checkpoint", "model.save_checkpoint", Amount(_file_bytes, "bytes", "B")),
    (model, "load_checkpoint", "model.load_checkpoint", None),
    (experiments, "run_experiment", "experiments.run_experiment", None),
    (experiments, "run_sensitivity_grid", "experiments.run_sensitivity_grid", None),
    (kernel, "quadrature_expansion", "kernel.quadrature_expansion", Amount(_nodes, "nodes", "count")),
    (kernel, "evaluate_expansion_grid", "kernel.evaluate_expansion_grid",
     Amount(_grid_bytes, "bytes", "B")),
    (kernel, "fit_expansion_least_squares", "kernel.fit_expansion_least_squares", None),
]

# Layers that span a whole pass.  Their self time is the pass's own work
# (artifacts, hashing) plus anything no other layer wraps, so the traced run
# leaves them out of the share of the pass the layers account for.
ENTRY_LAYERS = ("experiments.run_experiment", "experiments.run_sensitivity_grid")
