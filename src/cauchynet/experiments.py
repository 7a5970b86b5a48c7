"""Experiment specs, presets, metrics, and the run/ablation/sweep harness.

Every preset is a complete declarative recipe (generator, mask, model
config, training schedule, scaler range).  A run emits reproducible
artifacts into its output directory: trainlog.csv, predictions.csv,
metrics.csv, checkpoint.json, and a manifest.json listing every file with
a content hash.  With a fixed seed everything except wall-clock timings is
byte-identical across reruns; timings live only in metrics.csv and the
manifest, which the manifest marks as nondeterministic.
"""

from __future__ import annotations

import copy
import itertools
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import baseline as bl
from . import data as dt
from . import grad, kernel, model as mdl
from .activation import DEFAULT_EPSILON
from .complex_linalg import Rng, derive_seed
from .data import DiskMask, IntervalMask
from .errors import CauchyNetError, LengthMismatch, NonFiniteError, ValidationError
from .fileio import _check, write_csv, write_json
from .optim import TrainConfig, train
from .workers import map_forked

CONFIG_VERSION = 1

# Seed-stream tags (keep sampling, splitting, and inits decorrelated).
_STREAM_SAMPLES = 11
_STREAM_SPLIT = 12
_STREAM_INIT = 13
_STREAM_BASELINE_INIT = 14


# ---------------------------------------------------------------------------
# Metrics


def _residuals(preds, truths) -> np.ndarray:
    p = np.asarray(preds, dtype=float)
    t = np.asarray(truths, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise LengthMismatch("predictions and truths must be nonempty and equal-length")
    return p - t


def metric_mse(preds, truths) -> float:
    return float((_residuals(preds, truths) ** 2).mean())


def metric_mae(preds, truths) -> float:
    return float(np.abs(_residuals(preds, truths)).mean())


@dataclass
class MetricsReport:
    mse: float
    mae: float
    abs_errors: np.ndarray
    complex_params: int
    real_params: int
    wall_ms: float

    def __post_init__(self):
        # mae^2 <= mse by Cauchy-Schwarz; a violation means a metrics bug.
        if not self.mae ** 2 <= self.mse * (1 + 1e-12):
            raise CauchyNetError(f"metrics invariant broken: mae^2 = {self.mae ** 2!r} "
                                 f"exceeds mse = {self.mse!r}")


# ---------------------------------------------------------------------------
# Experiment specification


@dataclass
class ModelSpec:
    h: int = 128
    epsilon: float = DEFAULT_EPSILON
    init_major: float = 6.0        # pole-ellipse semi-axes (input units)
    init_minor: float = 2.0


@dataclass
class ExperimentSpec:
    name: str
    generator: str
    n_samples: int = 300                   # csv-trend ignores it: the series sets the count
    fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)
    mask: IntervalMask | DiskMask | None = None
    masked_fractions: tuple[float, float] = (0.75, 0.25)  # train/val share of visible points
    model: ModelSpec = field(default_factory=ModelSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    scaler_range: tuple[float, float] = (0.0, 1.0)
    baseline: bool = False                 # also train the ReLU MLP
    data_path: str | None = None           # csv-trend generator only
    data_column: str = "y"
    period: int = 12
    lambdas: tuple[float, ...] = (0.1, 0.3, 0.5, 1.0, 1.5)
    grid_hidden: tuple[int, ...] = (32, 64, 128, 256, 612, 1224)
    grid_sizes: tuple[int, ...] = (100, 300, 600, 1200)
    grid_lrs: tuple[float, ...] = (0.001, 0.01, 0.1)
    grid_wds: tuple[float, ...] = (0.0, 1e-5, 1e-4)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["config_version"] = CONFIG_VERSION
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        """Build a spec from a config document, checking every field first.

        Raises ValidationError listing every unknown, missing or mistyped
        field, so a bad config stops before any compute.
        """
        if not isinstance(doc, dict):
            raise ValidationError(["config must be a JSON object"])
        doc = copy.deepcopy(doc)
        version = doc.pop("config_version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ValidationError([f"unsupported config_version {version!r}"])
        return _check(cls, doc, "")


def validate_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Collect every precondition violation; raise before any compute.

    The spec's fields are first checked against their type hints, as a
    config file's are, and mistyped values are reported on their own,
    before the checks that compare values.  Returns the spec rebuilt from
    the checked fields (a mask dict becomes its mask class, a list a tuple).
    """
    spec = _check(ExperimentSpec, asdict(spec), "")
    problems = []
    if spec.generator not in GENERATORS:
        problems.append(f"unknown generator {spec.generator!r}; "
                        f"known: {sorted(GENERATORS)}")
    if spec.n_samples < 10:
        problems.append("n_samples must be at least 10")
    fr = spec.fractions
    if any(f < 0 for f in fr) or not 0.999 <= sum(fr) <= 1.0001:
        problems.append("fractions must be three nonnegative values summing to 1")
    mask = spec.mask
    if isinstance(mask, IntervalMask):
        if mask.half_width <= 0:
            problems.append("interval mask needs half_width > 0")
        if mask.centers == "turning-points":
            if (spec.generator in GENERATORS
                    and GENERATORS[spec.generator][0] is not _even_1d):
                problems.append("turning-point mask centers need a 1-D synthetic generator")
        elif isinstance(mask.centers, str):
            problems.append(f"mask.centers must be 'turning-points' or a tuple of "
                            f"floats, got {mask.centers!r}")
    elif isinstance(mask, DiskMask) and mask.radius <= 0:
        problems.append("disk mask needs radius > 0")
    if mask is not None:
        mf = spec.masked_fractions
        if any(f <= 0 for f in mf) or not 0.999 <= sum(mf) <= 1.0001:
            problems.append("masked_fractions must be two positive values summing to 1")
    if spec.model.h < 1:
        problems.append("model.h must be at least 1")
    if spec.model.epsilon < 0:
        problems.append("model.epsilon must be nonnegative")
    if spec.model.init_major <= 0 or spec.model.init_minor <= 0:
        problems.append("elliptical init needs positive semi-axes")
    problems.extend(spec.train.validate())
    if spec.scaler_range[1] <= spec.scaler_range[0]:
        problems.append("scaler_range must be increasing")
    if spec.generator == "csv-trend":
        if not spec.data_path:
            problems.append("csv-trend requires data_path")
        if spec.period < 2:
            problems.append("period must be at least 2")
    if problems:
        raise ValidationError(problems)
    return spec


# ---------------------------------------------------------------------------
# Dataset generators


def _even_1d(spec: ExperimentSpec, rng: Rng, lo, hi, target):
    xs = np.linspace(lo, hi, spec.n_samples)
    return xs[:, None], target(xs)


def _random_2d(spec: ExperimentSpec, rng: Rng, lo, hi, target):
    pts = rng.uniform_in(lo, hi, 2 * spec.n_samples).reshape(-1, 2)     # (x0, x1) per row
    return pts, target(pts[:, 0], pts[:, 1])


def _csv_trend(spec: ExperimentSpec, rng: Rng, lo, hi, target):
    series = dt.load_series_csv(spec.data_path, spec.data_column)
    dec = dt.seasonal_decompose_multiplicative(series, spec.period)
    trend = dec.trend[np.isfinite(dec.trend)]
    return np.linspace(lo, hi, len(trend))[:, None], trend


# name -> (sampler, input domain, target).  The target of a 1-D generator
# also places the turning-point centers of an interval mask.
GENERATORS = {
    "intro-spike": (_even_1d, (-1.0, 1.0), dt.target_intro_spike),
    "exp1": (_even_1d, (-1.0, 1.0), dt.target_exp1),
    "exp2-gap": (_even_1d, (-2.0, 2.0), dt.target_exp2_gap),
    "disk2d": (_random_2d, (-0.8, 0.8), dt.target_2d_missing_disk),
    "surface2d": (_random_2d, (-1.5, 1.5), dt.target_2d_surface),
    "csv-trend": (_csv_trend, (-1.0, 1.0), None),
}


def resolve_mask(spec: ExperimentSpec) -> IntervalMask | DiskMask | None:
    """The experiment's mask, with "turning-points" interval centers replaced
    by the turning points of the generator's target."""
    mask = spec.mask
    if isinstance(mask, IntervalMask) and mask.centers == "turning-points":
        _, (lo, hi), target = GENERATORS[spec.generator]
        return replace(mask, centers=tuple(dt.find_turning_points(target, lo, hi)))
    return mask


def build_dataset(spec: ExperimentSpec) -> dt.SplitDataset:
    """Sample the generator and split; masked regions become the test set.

    An empty split raises ValidationError: only here is the sample count
    known (a csv-trend series sets its own) to meet the spec's fractions.
    """
    sample, (lo, hi), target = GENERATORS[spec.generator]
    X, y = sample(spec, Rng(derive_seed(spec.train.seed, _STREAM_SAMPLES)), lo, hi, target)
    split_rng = Rng(derive_seed(spec.train.seed, _STREAM_SPLIT))
    mask = resolve_mask(spec)
    if mask is None:
        ds = dt.make_split(X, y, spec.fractions, split_rng)
    else:
        (vis_x, vis_y), (hid_x, hid_y) = dt.apply_mask(X, y, mask)
        if len(hid_y) == 0:
            raise ValidationError(["mask hides no samples"])
        idx = split_rng.permutation(len(vis_y))
        cut = int(math.floor(spec.masked_fractions[0] * len(vis_y)))
        tr, va = idx[:cut], idx[cut:]
        ds = dt.SplitDataset(vis_x[tr], vis_y[tr], vis_x[va], vis_y[va],
                             hid_x, hid_y, m=X.shape[1])
    empty = [name for name in ("train", "val", "test") if len(getattr(ds, f"{name}_y")) == 0]
    if empty:
        raise ValidationError([f"the {name} split is empty ({len(y)} samples)"
                               for name in empty])
    return ds


def prepare(spec: ExperimentSpec):
    """Build the dataset and min-max scale its targets by the train split.

    Returns (ds, scaled, scaler): ds keeps the targets in their own units,
    scaled is what the trainer sees.  The spec is not validated here.
    """
    ds = build_dataset(spec)
    scaler = dt.scaler_fit(ds.train_y, *spec.scaler_range)
    scaled = replace(ds, train_y=dt.scaler_apply(ds.train_y, scaler),
                     val_y=dt.scaler_apply(ds.val_y, scaler),
                     test_y=dt.scaler_apply(ds.test_y, scaler))
    return ds, scaled, scaler


def fit(spec: ExperimentSpec, scaled: dt.SplitDataset, epoch_callback=None, *,
        validate: bool = True):
    """Initialise the network from spec.model and the spec's seed, then train
    it on `scaled`, the split `prepare` returns.  Returns (model, log).

    validate=False goes to `train`: the log then has no val loss, for a
    caller that keeps only the model; the model is the same bytes."""
    rng = Rng(derive_seed(spec.train.seed, _STREAM_INIT))
    ms = spec.model
    net = mdl.init_elliptical(ms.h, scaled.m, rng, semi_major=ms.init_major,
                              semi_minor=ms.init_minor, epsilon=ms.epsilon)
    return net, train(grad.cauchynet_trainable(net), scaled, spec.train,
                      epoch_callback=epoch_callback, validate=validate)


def fit_baseline(spec: ExperimentSpec, scaled: dt.SplitDataset):
    """The ReLU MLP of the spec's width and seed, trained on `scaled` with
    spec.train, the network's schedule.  Returns (mlp, log)."""
    mlp = bl.init_mlp(spec.model.h, scaled.m,
                      Rng(derive_seed(spec.train.seed, _STREAM_BASELINE_INIT)))
    return mlp, train(bl.mlp_trainable(mlp), scaled, spec.train)


# ---------------------------------------------------------------------------
# Run harness

_RUN_NOTES = [
    "complex_params counts complex parameter pairs; real_params counts "
    "real scalars (two per complex). Size tables elsewhere may use "
    "either convention.",
    "wall_ms columns in metrics.csv vary between reruns; all other "
    "emitted values are deterministic for a fixed seed.",
]


def _sha256(path: Path) -> str:
    # CPython's built-in SHA-256, as `random` does for SHA-512: hashlib maps
    # OpenSSL, 3.5 MB resident, to hash a manifest's few hundred KB.
    try:
        from _sha2 import sha256           # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256     # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256     # a build without either module
    return sha256(path.read_bytes()).hexdigest()


def _reprs(*values) -> list[str]:
    """17-digit text of each value, so a CSV reload is bit-exact."""
    return [repr(float(v)) for v in values]


def _wall_ms(log) -> float:
    return sum(e.wall_ms for e in log.entries)


def _write_run(outdir: Path, prefix: str, log, ds, scaler, predict_fn) -> dict:
    """Write <prefix>trainlog.csv and <prefix>predictions.csv for one model.

    Predicts each split once and returns {split: (X, y_true, y_pred,
    e_pred)}, which every other artifact of the run reads.  y values are in
    target units; e_pred stays in scaled output units (the imaginary
    channel has no unscaled counterpart).
    """
    log.write_csv(outdir / f"{prefix}trainlog.csv")
    preds = {}
    for name in ("train", "val", "test"):
        X, y = getattr(ds, f"{name}_x"), getattr(ds, f"{name}_y")
        yp_s, ep = predict_fn(X)
        preds[name] = (X, y, dt.scaler_invert(yp_s, scaler), ep)
    write_csv(outdir / f"{prefix}predictions.csv",
              ["split"] + [f"x{i}" for i in range(ds.m)]
              + ["y_true", "y_pred", "e_pred", "abs_err"],
              ([name] + _reprs(*xi, yt, ypi, epi, abs(ypi - yt))
               for name, (X, y, yp, ep) in preds.items()
               for xi, yt, ypi, epi in zip(X, y, yp, ep)))
    return preds


def run_experiment(spec: ExperimentSpec, outdir) -> MetricsReport:
    """Build, train, evaluate, and emit one experiment's artifacts.

    If a model diverges, its partial trainlog and a manifest with status
    "diverged" are written before the NonFiniteError propagates.  The
    network trains in this process and the baseline, if the spec has one,
    in a worker where `workers.map_forked` finds a free slot; the
    artifacts are those of a serial run either way.
    """
    spec = validate_spec(spec)
    outdir = Path(outdir)
    t_start = time.perf_counter()
    # a refused dataset (a bad CSV, a mask that hides nothing) leaves no directory
    ds, scaled, scaler = prepare(spec)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = spec.train.seed
    files = []

    def write_manifest(status, **certificate):
        write_json(outdir / "manifest.json", {
            "name": spec.name,
            "spec": spec.to_dict(),
            "status": status,
            **certificate,
            "files": {f: _sha256(outdir / f) for f in files},
            "nondeterministic_files": ["metrics.csv", "manifest.json"],
            "notes": _RUN_NOTES,
            "wall_ms_total": (time.perf_counter() - t_start) * 1e3,
        })

    def write_diverged(prefix, exc):
        exc.partial_log.write_csv(outdir / f"{prefix}trainlog.csv")
        files.append(f"{prefix}trainlog.csv")
        write_manifest("diverged")

    def fit_network():
        try:
            return fit(spec, scaled)
        except NonFiniteError as exc:      # train() attaches the epochs it finished
            write_diverged("", exc)
            raise

    def fit_mlp():
        # Its divergence comes back as a value, so the network's artifacts
        # are written before the baseline's partial log, as in a serial run.
        try:
            return fit_baseline(spec, scaled)
        except NonFiniteError as exc:
            return exc

    # Item 0 runs in this process, so a caller that patches this module's
    # `train` sees the network's fit; a worker's calls stay in the worker.
    jobs = [fit_network, fit_mlp] if spec.baseline else [fit_network]
    (net, log), *baseline = map_forked(lambda job: job(), jobs)
    cplx, real = mdl.parameter_count(net)
    preds = _write_run(outdir, "", log, ds, scaler, lambda X: mdl.predict(net, X))
    mdl.save_checkpoint(net, scaler, outdir / "checkpoint.json", seed=seed)
    files += ["trainlog.csv", "predictions.csv", "checkpoint.json"]
    # model name -> (per-split predictions, complex params, real params, log)
    runs = {"cauchynet": (preds, cplx, real, log)}

    for outcome in baseline:               # empty without a baseline
        if isinstance(outcome, NonFiniteError):
            write_diverged("baseline_", outcome)
            raise outcome
        mlp, blog = outcome
        bpreds = _write_run(outdir, "baseline_", blog, ds, scaler,
                            lambda X: bl.mlp_predict(mlp, X))
        bl.save_mlp_checkpoint(mlp, scaler, outdir / "baseline_checkpoint.json",
                               seed=seed)
        files += ["baseline_trainlog.csv", "baseline_predictions.csv",
                  "baseline_checkpoint.json"]
        runs["relu_mlp"] = (bpreds, "", bl.mlp_parameter_count(mlp), blog)

    test_x, test_y, test_yp, _ = preds["test"]
    if spec.mask is not None:
        write_csv(outdir / "imputation_errors.csv",
                  [f"x{i}" for i in range(ds.m)] + ["y_true", "y_pred", "signed_err"],
                  (_reprs(*xi, yt, ypi, ypi - yt)
                   for xi, yt, ypi in zip(test_x, test_y, test_yp)))
        files.append("imputation_errors.csv")

    write_csv(outdir / "metrics.csv",
              ["model", "split", "mse", "mae", "n", "complex_params",
               "real_params", "wall_ms"],
              ([name, split, repr(metric_mse(yp, y)), repr(metric_mae(yp, y)),
                len(y), pc, pr, repr(_wall_ms(run_log))]
               for name, (by_split, pc, pr, run_log) in runs.items()
               for split, (_, y, yp, _) in by_split.items()))
    files.append("metrics.csv")
    # epsilon is real, so for real x |hidden_k| <= prod_i 1/|Im B_ki|
    write_manifest("ok", min_abs_im_B=float(np.abs(net.B.imag).min()))

    return MetricsReport(
        mse=metric_mse(test_yp, test_y),
        mae=metric_mae(test_yp, test_y),
        abs_errors=np.abs(test_yp - test_y),
        complex_params=cplx,
        real_params=real,
        wall_ms=_wall_ms(log),
    )


# ---------------------------------------------------------------------------
# Ablation and sweeps


def _test_mse(net, ds, scaler) -> float:
    """Test MSE of the network in the targets' own units."""
    yp_s, _ = mdl.predict(net, ds.test_x)
    return metric_mse(dt.scaler_invert(yp_s, scaler), ds.test_y)


def run_lambda_ablation(spec: ExperimentSpec, outdir=None):
    """One full train per penalty weight in spec.lambdas with a shared seed.

    Returns long-format rows (lam, seed, epoch, test_mse) with the test MSE
    in unscaled units snapshotted after every epoch, and writes them to
    lambda_ablation.csv when outdir is given.  Arms train with
    validate=False: no val loss is computed, so an arm fails only if its
    steps diverge.
    """
    spec = validate_spec(spec)
    if not spec.lambdas:
        raise ValidationError(["lambda list must be nonempty"])
    if any(l < 0 for l in spec.lambdas):
        raise ValidationError(["lambda values must be nonnegative"])
    ds, scaled, scaler = prepare(spec)

    def arm(lam):
        rows = []

        def snapshot(epoch, m):
            rows.append((lam, spec.train.seed, epoch, _test_mse(m, ds, scaler)))

        try:
            fit(replace(spec, train=replace(spec.train, lam=lam)), scaled, snapshot,
                validate=False)
        except NonFiniteError as exc:
            return exc
        return rows

    # Each arm's rows or divergence come back from wherever it ran, in
    # spec.lambdas order, so the first diverged arm is the same whichever
    # process ran it.
    arms = map_forked(arm, spec.lambdas)
    for outcome in arms:
        if isinstance(outcome, NonFiniteError):
            raise outcome
    rows = [row for arm_rows in arms for row in arm_rows]

    final = {lam: next(r[3] for r in reversed(rows) if r[0] == lam)
             for lam in spec.lambdas}
    best = min(final, key=final.get)
    summary = (f"final test MSE by lambda: "
               + ", ".join(f"{l:g}: {final[l]:.6g}" for l in spec.lambdas)
               + f"; best at lambda={best:g} (single-seed observation, not a gate)")

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "lambda_ablation.csv", ["lambda", "seed", "epoch", "test_mse"],
                  ([repr(float(lam)), seed, epoch, repr(mse)]
                   for lam, seed, epoch, mse in rows))
        (outdir / "lambda_ablation_summary.txt").write_text(summary + "\n",
                                                            encoding="utf-8")
    return rows, summary


def _sweep_cell(spec: ExperimentSpec, h, n, lr, wd):
    cell = validate_spec(replace(spec, n_samples=n, model=replace(spec.model, h=h),
                                 train=replace(spec.train, lr0=lr, weight_decay=wd)))
    ds, scaled, scaler = prepare(cell)
    return _test_mse(fit(cell, scaled, validate=False)[0], ds, scaler)


def _sweep_row(spec: ExperimentSpec, h, n, lr, wd):
    """A sweep row and whether the cell diverged; a failed cell's row is NaN."""
    try:
        return (h, n, lr, wd, _sweep_cell(spec, h, n, lr, wd), ""), False
    except (NonFiniteError, ValidationError) as exc:
        return ((h, n, lr, wd, float("nan"), f"failed: {exc}"),
                isinstance(exc, NonFiniteError))


def run_sensitivity_grid(spec: ExperimentSpec, hidden=None, data_sizes=None,
                         lrs=None, wds=None, outdir=None):
    """Cross-product sweep over hidden width, data size, lr, weight decay.

    A given axis replaces the spec's grid field (grid_hidden, grid_sizes,
    grid_lrs, grid_wds) before the spec is checked.  A csv-trend spec is
    refused with ValidationError: its series, not n, sets the sample count,
    so the data-size axis would label identical cells.  Each cell is the spec
    with its h, n, lr and wd, checked again; a cell that raises
    NonFiniteError or ValidationError becomes a NaN row whose note is the
    message.  If every cell fails the sweep raises: NonFiniteError when some
    cell diverged, ValidationError otherwise.  Cells run over the caller and
    forked workers (`workers.map_forked`), largest h*n first; rows are
    (h, n, lr, wd, test_mse, note) in deterministic axis order.  Cells
    train with validate=False: a cell diverges in its steps or in its
    test predict, never on a val row.
    """
    axes = dict(grid_hidden=hidden, grid_sizes=data_sizes, grid_lrs=lrs, grid_wds=wds)
    spec = validate_spec(replace(spec, **{k: tuple(v) for k, v in axes.items() if v is not None}))
    if spec.generator == "csv-trend":
        raise ValidationError(["a sweep cannot run csv-trend: its series sets the "
                               "sample count, so every data size would run the same cells"])
    grid = (spec.grid_hidden, spec.grid_sizes, spec.grid_lrs, spec.grid_wds)
    if not all(grid):
        raise ValidationError(["every sweep axis must be nonempty"])

    # Largest h*n first: a cell's cost grows with both, and the processes
    # that finish early take the small cells left at the end.
    cells = list(itertools.product(*grid))
    order = sorted(range(len(cells)), key=lambda k: -cells[k][0] * cells[k][1])
    done = map_forked(lambda k: _sweep_row(spec, *cells[k]), order)
    outcomes = [outcome for _, outcome in sorted(zip(order, done), key=lambda p: p[0])]
    rows = [row for row, _ in outcomes]

    if all(math.isnan(r[4]) for r in rows):
        if any(diverged for _, diverged in outcomes):
            raise NonFiniteError("every sweep cell failed")
        raise ValidationError(["every sweep cell failed"]
                              + list(dict.fromkeys(r[5] for r in rows)))

    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "sweep.csv", ["h", "n", "lr", "wd", "test_mse", "note"],
                  ([h, n, *_reprs(lr, wd, mse), note] for h, n, lr, wd, mse, note in rows))
    return rows


# ---------------------------------------------------------------------------
# Kernel quadrature demo


KERNEL_DEMOS = {
    "one": (lambda z: 1.0 + 0j, lambda x: np.ones_like(x)),
    "square": (lambda z: z * z, lambda x: x * x),
    "exp": (np.exp, np.exp),
    "inverse-shift": (lambda z: 1.0 / (3.0 - z), lambda x: 1.0 / (3.0 - x)),
}
KERNEL_DEMO_AXES = (2.0, 1.0)          # semi-axes a, b of the contour
KERNEL_DEMO_SPAN = (-1.0, 1.0)
KERNEL_DEMO_POINTS = 201


def run_kernel_demo(target: str, node_counts=(16, 32, 64, 128), outdir=None):
    """Sup-norm quadrature error over a dense interior grid per node count.

    The contour is the ellipse KERNEL_DEMO_AXES about the origin, and the
    grid KERNEL_DEMO_POINTS evenly spaced points on KERNEL_DEMO_SPAN.
    Emits one (nodes, sup_error) row per requested node count regardless of
    accuracy.  The target must be holomorphic on and inside the contour for
    the reconstruction to converge.
    """
    if target not in KERNEL_DEMOS:
        raise ValidationError([f"unknown kernel demo target {target!r}; "
                               f"known: {sorted(KERNEL_DEMOS)}"])
    if not node_counts or min(node_counts) < 4:
        raise ValidationError([f"node counts must be at least 4, got {node_counts}"])
    f, f_real = KERNEL_DEMOS[target]
    xs = np.linspace(*KERNEL_DEMO_SPAN, KERNEL_DEMO_POINTS)
    rows = []
    for n in node_counts:
        mesh = kernel.ellipse_mesh(*KERNEL_DEMO_AXES, nodes=int(n))
        exp = kernel.quadrature_expansion(f, mesh)
        vals = kernel.evaluate_expansion_grid(exp, xs)
        rows.append((int(n), float(np.abs(vals - f_real(xs)).max())))
    if outdir is not None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "kernel_demo.csv", ["nodes", "sup_error"],
                  ([n, repr(err)] for n, err in rows))
    return rows


# ---------------------------------------------------------------------------
# Presets


def _preset_intro_spike():
    return ExperimentSpec(
        name="intro-spike", generator="intro-spike", n_samples=400,
        model=ModelSpec(h=128, init_major=1.3, init_minor=0.2),
        train=TrainConfig(epochs=500, lr0=0.001, weight_decay=0.0, lam=0.1, seed=10),
        baseline=True)


def _preset_exp1():
    return ExperimentSpec(
        name="exp1", generator="exp1", n_samples=300,
        model=ModelSpec(h=128, init_major=1.02, init_minor=0.1),
        train=TrainConfig(epochs=200, lr0=0.01, weight_decay=1e-4, lam=0.1, seed=10),
        baseline=True)


def _preset_exp2_gap():
    return ExperimentSpec(
        name="exp2-gap", generator="exp2-gap", n_samples=360,
        mask=IntervalMask(half_width=0.15, centers="turning-points"),
        masked_fractions=(0.75, 0.25),
        model=ModelSpec(h=128, init_major=2.1, init_minor=0.4),
        train=TrainConfig(epochs=500, lr0=0.01, weight_decay=1e-4, lam=0.1, seed=10))


def _preset_exp2_disk():
    return ExperimentSpec(
        name="exp2-disk", generator="disk2d", n_samples=3000,
        mask=DiskMask(radius=0.3, center=(0.0, 0.0)),
        masked_fractions=(0.6, 0.4),
        model=ModelSpec(h=128, init_major=0.9, init_minor=0.3),
        train=TrainConfig(epochs=200, lr0=0.01, weight_decay=1e-4, lam=0.1, seed=10))


def _preset_exp3_surface():
    return ExperimentSpec(
        name="exp3-surface", generator="surface2d", n_samples=300,
        model=ModelSpec(h=128, init_major=1.8, init_minor=0.8),
        train=TrainConfig(epochs=500, lr0=0.01, weight_decay=1e-4, lam=0.1, seed=10))


def _preset_exp4_csv():
    return ExperimentSpec(
        name="exp4-csv", generator="csv-trend",
        scaler_range=(-1.0, 1.0), period=12,
        model=ModelSpec(h=128, init_major=1.1, init_minor=0.3),
        train=TrainConfig(epochs=200, lr0=0.01, weight_decay=1e-4, lam=0.1, seed=10))


def _preset_exp5_lambda():
    spec = _preset_exp1()
    spec.name = "exp5-lambda"
    spec.baseline = False
    return spec


def _preset_exp5_grid():
    spec = _preset_exp1()
    spec.name = "exp5-grid"
    spec.baseline = False
    return spec


PRESETS = {
    "intro-spike": _preset_intro_spike,
    "exp1": _preset_exp1,
    "exp2-gap": _preset_exp2_gap,
    "exp2-disk": _preset_exp2_disk,
    "exp3-surface": _preset_exp3_surface,
    "exp4-csv": _preset_exp4_csv,
    "exp5-lambda": _preset_exp5_lambda,
    "exp5-grid": _preset_exp5_grid,
}

PRESET_SUMMARIES = {
    "intro-spike": "sharp-peak 1D comparison vs the ReLU baseline (500 epochs, lr 0.001)",
    "exp1": "sharp-peak/oscillation 1D approximation, 150 train points, 200 epochs",
    "exp2-gap": "1D gap filling: six masked turning-point intervals become the test set",
    "exp2-disk": "2D imputation: radius-0.3 disk withheld from 3000 random samples",
    "exp3-surface": "2D polynomial-rational surface, 300 random samples",
    "exp4-csv": "decompose a positive CSV series and fit the trend (needs data_path)",
    "exp5-lambda": "imaginary-penalty ablation over the preset lambda set",
    "exp5-grid": "hidden/data/lr/weight-decay sensitivity sweep axes",
}


def get_preset(name: str) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValidationError([f"unknown preset {name!r}; known: {sorted(PRESETS)}"])
    return PRESETS[name]()
