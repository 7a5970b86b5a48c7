"""Command-line experiment runner.

Subcommands: train, evaluate, ablate-lambda, sweep, kernel-demo, decompose,
list-experiments.  Recipes come from named presets or a JSON config file
mirroring ExperimentSpec; individual fields are overridden with repeated
--set key=value flags (dotted paths, JSON-parsed values), the seed, sweep
axes and penalty weights too (--set train.seed=3 --set grid_hidden=[8,16]
--set lambdas=[0.1]); a recipe command reads no other flag and no
environment variable for a run value.  A preset or config with a mask also writes imputation_errors.csv.

Exit codes: 0 success, 2 validation error, 3 numerical divergence,
4 I/O error or malformed checkpoint.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import data as dt
from . import experiments as xp
from . import model as mdl
from .errors import (CauchyNetError, NonFiniteError, ParseError, SchemaError,
                     ValidationError)
from .fileio import write_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _parse_set(values):
    out = {}
    for item in values or []:
        if "=" not in item:
            raise ValidationError([f"--set expects key=value, got {item!r}"])
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        out[key.strip()] = val
    return out


def _apply_overrides(doc: dict, overrides: dict) -> dict:
    for key, val in overrides.items():
        parts = key.split(".")
        node = doc
        for p in parts[:-1]:
            if p not in node or not isinstance(node[p], dict):
                raise ValidationError([f"--set {key}: no such config section {p!r}"])
            node = node[p]
        node[parts[-1]] = val     # ExperimentSpec.from_dict checks the field and its value
    return doc


def load_spec(args) -> xp.ExperimentSpec:
    if args.config and args.preset:
        raise ValidationError(["give --preset or --config, not both"])
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ParseError(f"cannot read config {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValidationError([f"config {args.config} is not valid JSON: {exc}"])
    elif args.preset:
        doc = xp.get_preset(args.preset).to_dict()
    else:
        raise ValidationError(["provide --preset or --config"])
    doc = _apply_overrides(doc, _parse_set(args.set))
    return xp.ExperimentSpec.from_dict(doc)


def _add_spec_args(p):
    p.add_argument("--preset", help="named experiment recipe")
    p.add_argument("--config", help="JSON config file mirroring ExperimentSpec")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (dotted path, JSON value)")


def _outdir(args, spec):
    return Path(args.out) / spec.name


def cmd_train(args):
    spec = load_spec(args)
    report = xp.run_experiment(spec, _outdir(args, spec))
    print(f"{spec.name}: test mse={report.mse:.6g} mae={report.mae:.6g} "
          f"params={report.complex_params} complex / {report.real_params} real")
    print(f"artifacts in {_outdir(args, spec)}")
    return EXIT_OK


def cmd_evaluate(args):
    spec = xp.validate_spec(load_spec(args))
    model, scaler = mdl.load_checkpoint(args.checkpoint)
    ds = xp.build_dataset(spec)
    if model.m != ds.m:
        raise ValidationError([f"checkpoint input dimension {model.m} does not "
                               f"match dataset dimension {ds.m}"])
    yp_s, _ = mdl.predict(model, ds.test_x)
    yp = dt.scaler_invert(yp_s, scaler)
    print(f"{spec.name}: test mse={xp.metric_mse(yp, ds.test_y):.6g} "
          f"mae={xp.metric_mae(yp, ds.test_y):.6g} (n={len(ds.test_y)})")
    return EXIT_OK


def cmd_ablate_lambda(args):
    spec = load_spec(args)
    rows, summary = xp.run_lambda_ablation(spec, _outdir(args, spec))
    print(summary)
    print(f"{len(rows)} rows in {_outdir(args, spec) / 'lambda_ablation.csv'}")
    return EXIT_OK


def cmd_sweep(args):
    spec = load_spec(args)
    rows = xp.run_sensitivity_grid(spec, outdir=_outdir(args, spec))
    failed = sum(1 for r in rows if r[4] != r[4])
    print(f"{len(rows)} cells ({failed} failed) in "
          f"{_outdir(args, spec) / 'sweep.csv'}")
    return EXIT_OK


def cmd_kernel_demo(args):
    outdir = Path(args.out) / "kernel-demo"
    rows = xp.run_kernel_demo(args.target, args.nodes, outdir)
    for n, err in rows:
        print(f"nodes={n:6d}  sup_error={err:.3e}")
    print(f"table in {outdir / 'kernel_demo.csv'}")
    return EXIT_OK


def cmd_decompose(args):
    series = dt.load_series_csv(args.data, args.column)
    dec = dt.seasonal_decompose_multiplicative(series, args.period)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cols = zip(series, dec.trend, dec.seasonal, dec.residual)
    write_csv(out, ["t", "value", "trend", "seasonal", "residual"],
              ([i] + [repr(float(v)) for v in vals] for i, vals in enumerate(cols)))
    print(f"decomposition (period {args.period}) written to {out}")
    return EXIT_OK


def cmd_list_experiments(args):
    for name in sorted(xp.PRESETS):
        print(f"{name:14s} {xp.PRESET_SUMMARIES[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cauchynet",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    for name, about, fn in (
            ("train", "run a full experiment preset", cmd_train),
            ("ablate-lambda", "sweep the imaginary-penalty weight", cmd_ablate_lambda),
            ("sweep", "hidden/data/lr/weight-decay sensitivity grid", cmd_sweep)):
        p = sub.add_parser(name, help=about)
        _add_spec_args(p)
        p.add_argument("--out", default="runs", help="output directory root")
        p.set_defaults(fn=fn)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a preset's test split")
    _add_spec_args(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("kernel-demo", help="contour quadrature convergence table")
    p.add_argument("--target", default="square",
                   choices=sorted(xp.KERNEL_DEMOS))
    p.add_argument("--nodes", type=int, nargs="+", default=[16, 32, 64, 128])
    p.add_argument("--out", default="runs")
    p.set_defaults(fn=cmd_kernel_demo)

    p = sub.add_parser("decompose", help="multiplicative seasonal decomposition of a CSV column")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--column", default="y")
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out", default="decomposition.csv")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("list-experiments", help="show available presets")
    p.set_defaults(fn=cmd_list_experiments)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (OSError, ParseError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CauchyNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
