"""Benchmark for cauchynet: run one workload in one process and report it.

Run from the repository root:

    python3 perfbench/run.py --workload spike-1d --seed 1 --seconds 10 --trace 0

Workloads: spike-1d, disk-2d, sweep-width, oracle-2d (see workloads.py).

--trace 0 measures the end-to-end metrics with no tracing, after one untimed
warm-up pass: wall_rel, the median pass time divided by the time of a fixed
numpy yardstick run next to each pass (see yardstick.py); peak_rss_mb; and
setup_s, the median time from a fresh interpreter to the first epoch,
likewise divided by the adjacent yardstick time and expressed in seconds at
the reference machine's yardstick speed.  It also prints, above the result,
the raw pass and set-up times and every workload-specific figure (epoch
times, throughput, time to target, test error) with its unit and sample
count.

--trace 1 wraps each library layer (workloads.LAYERS) and reports per-layer
call counts and self times per pass, the share of the traced pass the layers
account for, and the tracing overhead against untraced passes run
alternately in the same process.

Every pass is checked (workload.check); a pass that raises or fails a check
counts in `failed`.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The library is
imported from src/; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

WORKLOAD_NAMES = ("spike-1d", "disk-2d", "sweep-width", "oracle-2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the small per-call arrays gain nothing from a second
# thread, and a pinned count keeps runs steady when other load shares the
# cores.
BLAS_THREADS = "1"
SETUP_REPEATS = 11
MIN_TIMED_PASSES = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": _git_revision(),
        "cache": _cache_sizes(),
    }


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, by level, as the kernel lists them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            sizes[f"L{(index / 'level').read_text().strip()}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def measure_setup(name: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload's first epoch
    (or first quadrature call), as timed from this process."""
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Runner:
    """Runs and checks passes of one workload; counts attempts and failures."""

    def __init__(self, workload, capture, workdir: Path):
        self.workload = workload
        self.capture = capture
        self.workdir = workdir
        self.reference = None    # first pass that passed its checks
        self.summaries = []      # of the timed passes that passed their checks
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, timed=True, tracer=None, layers=()) -> float:
        """One pass, traced when `tracer` is given; returns its wall seconds.

        The check runs after the clock stops and the tracing is undone.
        """
        self.attempted += 1
        outdir = self.workdir / f"pass{self.attempted}"
        tracing = tracer.tracing(layers) if tracer else contextlib.nullcontext()
        result, problems = None, []
        start = time.perf_counter()
        try:
            with tracing:
                result = self.workload.run(outdir, self.capture)
        except Exception as exc:  # a failing pass is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        shutil.rmtree(outdir, ignore_errors=True)
        if not problems:
            problems = self.workload.check(result, self.reference)
        if problems:
            self.failed += 1
            self.problems.append((self.attempted, problems))
        else:
            if self.reference is None:
                self.reference = result
            if timed:
                self.summaries.append(self.workload.summary(result))
        return seconds


def run_untraced(args, workload, runner) -> tuple[dict, list[tuple]]:
    from yardstick import REFERENCE_S, Yardstick
    yardstick = Yardstick()
    # Each set-up probe is divided by the mean yardstick time measured just
    # before and after it, as each pass is.
    setup, marks = [], [yardstick.seconds()]
    for _ in range(SETUP_REPEATS):
        setup.append(measure_setup(args.workload, args.seed, runner.workdir))
        marks.append(yardstick.seconds())
    setup_rel = _relative(setup, marks)

    runner.run(timed=False)                                   # warm-up
    seconds, marks = [], [yardstick.seconds()]
    start = time.perf_counter()
    while len(seconds) < MIN_TIMED_PASSES or time.perf_counter() - start < args.seconds:
        seconds.append(runner.run())
        marks.append(yardstick.seconds())
    relative = _relative(seconds, marks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "wall_rel": (statistics.median(relative), "x"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_rel) * REFERENCE_S, "s"),
    }
    rows = [
        ("wall_rel", metrics["wall_rel"][0], "x", len(relative),
         "median of pass time / adjacent yardstick time"),
        ("wall_s", statistics.median(seconds), "s", len(seconds), _tail_note(seconds, "s")),
        ("yardstick_s", statistics.median(marks), "s", len(marks),
         f"median; {REFERENCE_S:g} s on the reference machine"),
        ("setup_s", metrics["setup_s"][0], "s", len(setup),
         "fresh interpreter to first epoch, median, at the reference yardstick speed"),
        ("setup_s_measured", statistics.median(setup), "s", len(setup),
         "the same, median as measured here; the only cold figure"),
        ("peak_rss_mb", peak_rss_mb, "MB", 1, "ru_maxrss after the timed passes"),
    ]
    if runner.summaries:
        rows += workload.rows(runner.summaries, seconds)
    return metrics, rows


def _relative(seconds, marks) -> list[float]:
    """Each time divided by the mean of the yardstick times either side of it."""
    return [s * 2 / (marks[i] + marks[i + 1]) for i, s in enumerate(seconds)]


def _tail_note(samples, unit) -> str:
    level = summary.tail_level(len(samples))
    if level is None:
        return f"median pass; no tail percentile from {len(samples)} samples"
    return f"median pass; p{level:g} = {summary.percentile(samples, level)!r} {unit}"


def run_traced(args, workload, runner) -> tuple[dict, list[tuple]]:
    from workloads import ENTRY_LAYERS, LAYERS
    tracer = spans.Tracer()
    runner.run(timed=False)                                   # warm-up
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced.append(runner.run())
        traced.append(runner.run(tracer=tracer, layers=LAYERS))

    metrics = spans.layer_metrics(tracer.spans, tracer.pass_id, LAYERS, ENTRY_LAYERS)
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(untraced)) * 1e3, "ms")
    rows = sorted(((k, v, u, len(traced), "per pass, median")
                   for k, (v, u) in metrics.items() if k.endswith(".self_ms")),
                  key=lambda r: -r[1])
    rows += [(k, v, u, len(traced), "") for k, (v, u) in metrics.items()
             if not k.endswith(".self_ms")]
    return metrics, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cauchynet" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC}/cauchynet", file=sys.stderr)
        return 2
    for var in THREAD_VARS:                   # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import cauchynet
    import workloads
    if Path(cauchynet.__file__).resolve().parent != SRC / "cauchynet":
        print(f"perfbench: imported cauchynet from {cauchynet.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR))
    try:
        workload = workloads.make(args.workload, args.seed)
        with workloads.TrainCapture() as capture:
            runner = Runner(workload, capture, workdir)
            measure = run_traced if args.trace else run_untraced
            metrics, rows = measure(args, workload, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment()))
    print(f"{'metric':44s} {'value':>22s} {'unit':14s} {'n':>6s}  note")
    for name, value, unit, n, note in rows:
        print(f"{name:44s} {value!r:>22} {unit:14s} {n:>6}  {note}")
    for attempt, problems in runner.problems:
        print(f"FAILED pass {attempt}: " + "; ".join(problems))
    print(f"failed_ratio {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted!r} (passes, warm-up included)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
