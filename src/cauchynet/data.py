"""Synthetic targets, splits, masks, scaling, decomposition, and CSV ingestion.

The target functions are the benchmark functions used by the experiment
presets; each is pure, vectorized, and pinned by a high-precision value
table in the test suite.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .complex_linalg import Rng, as_inputs
from .errors import (DegenerateRange, LengthMismatch, NonPositiveValue,
                     ParseError, ValidationError)

# ---------------------------------------------------------------------------
# Target functions


def target_intro_spike(x):
    """sin(3x) + 4/((x-0.5)^2 + 0.01): smooth oscillation with one sharp peak."""
    x = np.asarray(x, dtype=float)
    return np.sin(3 * x) + 4.0 / ((x - 0.5) ** 2 + 0.01)


def target_exp1(x):
    """Sharp rational peak, Gaussian dip, and a sign-gated oscillation.

    1/((x+0.6)^2+0.005) - 40 exp(-2(x+0.4)^2)
    + 50 sign(x) |sin(3x)+0.8|^1.5 sin(10x),  with sign(0) = 0.
    """
    x = np.asarray(x, dtype=float)
    return (1.0 / ((x + 0.6) ** 2 + 0.005)
            - 40.0 * np.exp(-2.0 * (x + 0.4) ** 2)
            + 50.0 * np.sign(x) * np.abs(np.sin(3 * x) + 0.8) ** 1.5 * np.sin(10 * x))


def target_exp2_gap(x):
    """Trig/rational/cubic mix with six turning points on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    return (np.sin(2 * x - 4) + 0.5 * np.cos(5 * x - 5)
            + 0.05 / ((x - 1) ** 2 + 0.1)
            + 0.01 / ((x + 0.5) ** 2 + 0.05)
            - 0.01 * (x ** 2 - x ** 3))


def target_2d_missing_disk(x, y):
    """3 - x^2 + xy - y^2 - 1/(5 + (x-1)^2): quadratic with a rational dip."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return 3.0 - x ** 2 + x * y - y ** 2 - 1.0 / (5.0 + (x - 1.0) ** 2)


def target_2d_surface(x, y):
    """x^2 - xy + 3y + y^2 + 1/(5 + x^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x ** 2 - x * y + 3.0 * y + y ** 2 + 1.0 / (5.0 + x ** 2)


def find_turning_points(f, lo: float, hi: float) -> list[float]:
    """Abscissae in (lo, hi) where f' changes sign.

    Sign changes of a central-difference derivative on a 2000-point grid
    are refined by bisection on the derivative to an interval of width 1e-8.
    """
    h = (hi - lo) * 1e-7

    def deriv(x):
        return (f(x + h) - f(x - h)) / (2 * h)

    xs = np.linspace(lo, hi, 2000)
    ds = np.array([deriv(x) for x in xs])
    points = []
    for i in range(len(xs) - 1):
        a, b = ds[i], ds[i + 1]
        if a == 0.0 or a * b >= 0.0:
            continue
        x0, x1 = xs[i], xs[i + 1]
        d0 = a
        while x1 - x0 > 1e-8:
            xm = 0.5 * (x0 + x1)
            dm = deriv(xm)
            if dm == 0.0:
                x0 = x1 = xm
                break
            if d0 * dm < 0:
                x1 = xm
            else:
                x0, d0 = xm, dm
        points.append(0.5 * (x0 + x1))
    return points


# ---------------------------------------------------------------------------
# Splits and masks


@dataclass
class SplitDataset:
    """Train/val/test arrays with shared input dimension m."""
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    m: int


def make_split(X, y, fractions, rng: Rng) -> SplitDataset:
    """Deterministic shuffled split by the given fractions.

    Counts are floor(f_train * n) and floor((f_train + f_val) * n) cut
    points, so (0.5, 0.25, 0.25) on 300 samples gives exactly 150/75/75.
    """
    X = as_inputs(X)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if X.shape[0] != n:
        raise LengthMismatch("X and y differ in length")
    if n < 3:
        raise ValidationError("need at least 3 samples for a 3-way split")
    idx = rng.permutation(n)
    c1 = int(math.floor(fractions[0] * n))
    c2 = int(math.floor((fractions[0] + fractions[1]) * n))
    tr, va, te = idx[:c1], idx[c1:c2], idx[c2:]
    return SplitDataset(X[tr], y[tr], X[va], y[va], X[te], y[te], m=X.shape[1])


@dataclass
class IntervalMask:
    """1-D gaps of half_width around each center, withheld from training.

    centers is a tuple of abscissae or "turning-points", which the
    experiment harness replaces by the turning points of its target.
    """
    half_width: float
    centers: str | tuple[float, ...] = "turning-points"
    kind: str = "intervals"

    def contains(self, x) -> np.ndarray:
        """Boolean membership for an (n, m) array of inputs."""
        xs = as_inputs(x)[:, 0]
        hit = np.zeros(len(xs), dtype=bool)
        for c in self.centers:
            hit |= np.abs(xs - c) <= self.half_width
        return hit


@dataclass
class DiskMask:
    """2-D disk of radius around center, withheld from training."""
    radius: float
    center: tuple[float, float] = (0.0, 0.0)
    kind: str = "disk"

    def contains(self, x) -> np.ndarray:
        """Boolean membership for an (n, m) array of inputs."""
        x = as_inputs(x)
        d2 = (x[:, 0] - self.center[0]) ** 2 + (x[:, 1] - self.center[1]) ** 2
        return d2 <= self.radius ** 2


def apply_mask(X, y, mask: IntervalMask | DiskMask):
    """Split samples into (visible, hidden) by geometric mask membership."""
    X = as_inputs(X)
    y = np.asarray(y, dtype=float)
    inside = mask.contains(X)
    return (X[~inside], y[~inside]), (X[inside], y[inside])


# ---------------------------------------------------------------------------
# Min-max scaling


@dataclass
class ScalerState:
    min: float
    max: float
    range_lo: float
    range_hi: float


def scaler_fit(values, range_lo: float = 0.0, range_hi: float = 1.0) -> ScalerState:
    v = np.asarray(values, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        raise DegenerateRange("cannot fit scaler: max == min")
    if range_hi <= range_lo:
        raise ValueError("range_hi must exceed range_lo")
    return ScalerState(lo, hi, range_lo, range_hi)


def scaler_apply(values, st: ScalerState):
    v = np.asarray(values, dtype=float)
    return (v - st.min) / (st.max - st.min) * (st.range_hi - st.range_lo) + st.range_lo


def scaler_invert(values, st: ScalerState):
    v = np.asarray(values, dtype=float)
    return (v - st.range_lo) / (st.range_hi - st.range_lo) * (st.max - st.min) + st.min


# ---------------------------------------------------------------------------
# Multiplicative seasonal decomposition


@dataclass
class Decomposition:
    """Aligned components; entries are NaN where the trend is undefined."""
    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def seasonal_decompose_multiplicative(series, period: int) -> Decomposition:
    """series = trend * seasonal * residual via centered moving average.

    Odd periods use a simple window mean; even periods the standard
    half-weighted window over period+1 points.  Seasonal factors are the
    per-phase means of series/trend, renormalized to average 1.
    """
    s = np.asarray(series, dtype=float)
    n = len(s)
    if period < 2:
        raise ValidationError("period must be at least 2")
    if n < 2 * period:
        raise ValidationError("series must cover at least two periods")
    if np.any(s <= 0):
        raise NonPositiveValue("multiplicative model requires positive values")

    trend = np.full(n, np.nan)
    if period % 2 == 1:
        half = period // 2
        for i in range(half, n - half):
            trend[i] = s[i - half:i + half + 1].mean()
    else:
        half = period // 2
        w = np.ones(period + 1)
        w[0] = w[-1] = 0.5
        w /= period
        for i in range(half, n - half):
            trend[i] = float(np.dot(s[i - half:i + half + 1], w))

    ratio = s / trend
    seasonal_idx = np.empty(period)
    for p in range(period):
        vals = ratio[p::period]
        vals = vals[np.isfinite(vals)]
        seasonal_idx[p] = vals.mean()
    seasonal_idx /= seasonal_idx.mean()

    seasonal = np.array([seasonal_idx[i % period] for i in range(n)])
    residual = s / (trend * seasonal)
    return Decomposition(trend, seasonal, residual, period)


# ---------------------------------------------------------------------------
# CSV ingestion

_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _row_name(rownum):
    return f"row {rownum}" if rownum else "header"


def load_series_csv(path, column: str) -> np.ndarray:
    """Ordered numeric series from a headered CSV column.

    ParseError names the file and the header or 1-based data row that holds
    bytes that are not UTF-8, is malformed (csv.Error) or has a cell in the
    column that is missing, unparseable or not finite.
    """
    out, rownum = [], -1
    # utf-8-sig drops the byte-order mark a spreadsheet may write before the
    # header; surrogateescape reads each byte that is not UTF-8 as a lone
    # surrogate, which no UTF-8 text decodes to, so the row that holds it is known
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        try:
            for rownum, row in enumerate(csv.reader(fh)):
                if _UNDECODABLE.search("".join(row)):
                    raise ParseError(f"{path}: {_row_name(rownum)}: bytes that are not UTF-8")
                if rownum == 0:
                    header = [h.strip() for h in row]
                    if column not in header:
                        raise ParseError(
                            f"{path}: column {column!r} not found; available: {header}")
                    col = header.index(column)
                elif any(c.strip() for c in row):
                    cell = row[col] if col < len(row) else "<missing>"
                    try:
                        value = float(cell)
                    except ValueError:
                        raise ParseError(f"{path}: row {rownum}: cannot parse "
                                         f"{column!r} value {cell!r}") from None
                    if not math.isfinite(value):
                        raise ParseError(f"{path}: row {rownum}: {column!r} value "
                                         f"{cell!r} is not finite")
                    out.append(value)
        except csv.Error as exc:
            raise ParseError(f"{path}: {_row_name(rownum + 1)}: {exc}") from None
    if rownum < 0:
        raise ParseError(f"{path}: empty file")
    return np.asarray(out)
