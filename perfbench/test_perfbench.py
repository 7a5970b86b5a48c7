"""Tests for the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402
from cauchynet import experiments  # noqa: E402


def _span(sid, start, end, parent, name="x"):
    return spans.Span(sid, name, start, end, parent, 1)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, 0, 100, None),
        _span(1, 10, 40, 0),
        _span(2, 20, 30, 1),      # grandchild: counts against span 1 only
        _span(3, 50, 60, 0),
    ]
    assert spans.self_times_ns(tree) == {0: 60, 1: 20, 2: 10, 3: 10}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        _span(0, 0, 100, None),
        _span(1, 10, 50, 0),
        _span(2, 30, 70, 0),      # overlaps span 1 on [30, 50)
        _span(3, 90, 120, 0),     # runs past its parent's end
    ]
    assert spans.self_times_ns(tree)[0] == 100 - 60 - 10


def test_tracer_records_nesting_and_restores_functions():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner, original_outer = mod.inner, mod.outer
    tracer = spans.Tracer()
    layers = [(mod, "outer", "outer", None),
              (mod, "inner", "inner", spans.Amount(lambda args, result: result, "items", "count"))]
    with tracer.tracing(layers):
        assert mod.outer(3) == 8
    assert (mod.inner, mod.outer) == (original_inner, original_outer)
    root, outer, inner = tracer.spans
    assert (root.name, outer.name, inner.name) == (spans.ROOT_SPAN, "outer", "inner")
    assert outer.parent == root.sid and inner.parent == outer.sid
    assert inner.amount == 4
    selfs = spans.self_times_ns(tracer.spans)
    assert sum(selfs.values()) == root.duration_ns
    metrics = spans.layer_metrics(tracer.spans, 1, layers)
    assert metrics["inner.calls"] == (1, "count")
    assert metrics["inner.items"] == (4, "count")
    assert metrics["outer.self_ms"][0] == pytest.approx(selfs[outer.sid] / 1e6)


def test_coverage_leaves_out_entry_layers():
    # One pass of 100 ns: an entry layer spans 2..98 and wraps one layer
    # that covers 10..70.  The root's 4 ns and the entry's 36 ns of self
    # time are unattributed.
    tree = [
        _span(0, 0, 100, None, spans.ROOT_SPAN),
        _span(1, 2, 98, 0, "entry"),
        _span(2, 10, 70, 1, "work"),
    ]
    layers = [(None, None, "entry", None), (None, None, "work", None)]
    with_entry = spans.layer_metrics(tree, 1, layers)
    without_entry = spans.layer_metrics(tree, 1, layers, entry=("entry",))
    assert with_entry["trace.coverage_pct"][0] == pytest.approx(96.0)
    assert without_entry["trace.coverage_pct"][0] == pytest.approx(60.0)


@pytest.mark.parametrize("n, level", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_level_keeps_ten_samples_beyond(n, level):
    assert summary.tail_level(n) == level
    if level is not None:
        samples = list(range(n))
        value = summary.percentile(samples, level)
        assert sum(s > value for s in samples) >= summary.MIN_BEYOND


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert summary.percentile(samples, 50) == 3.0
    assert summary.percentile(samples, 100) == 5.0
    assert summary.percentile(samples, 1) == 1.0
    with pytest.raises(ValueError):
        summary.percentile([], 50)


@pytest.mark.parametrize("name", ["spike-1d", "disk-2d", "sweep-width"])
def test_training_inputs_depend_only_on_the_seed(name):
    a, b, c = workloads.make(name, 7), workloads.make(name, 7), workloads.make(name, 8)
    assert a.spec.to_dict() == b.spec.to_dict()
    assert a.spec.train.seed == 7 and c.spec.train.seed == 8
    da, db, dc = (experiments.build_dataset(w.spec) for w in (a, b, c))
    for field in ("train_x", "train_y", "val_x", "val_y", "test_x", "test_y"):
        assert np.array_equal(getattr(da, field), getattr(db, field))
    assert not np.array_equal(da.train_x, dc.train_x)


def test_oracle_inputs_depend_only_on_the_seed():
    a, b, c = (workloads.make("oracle-2d", s) for s in (7, 7, 8))
    for field in ("freq", "grid", "midgrid", "truth", "mid_truth"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.grid, c.grid)
    assert np.abs(a.grid).max() <= 1.1          # inside both ellipses


def test_time_to_target_sums_epochs_up_to_the_first_hit():
    log = types.SimpleNamespace(entries=[
        types.SimpleNamespace(wall_ms=w, val_loss=v)
        for w, v in [(10.0, 0.5), (20.0, 0.1), (30.0, 0.05), (40.0, 0.2)]])
    assert workloads.time_to_target_s(log, 0.1) == pytest.approx(0.030)
    assert workloads.time_to_target_s(log, 0.01) is None
