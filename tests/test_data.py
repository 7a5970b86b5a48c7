import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet.complex_linalg import Rng
from cauchynet.data import (DiskMask, IntervalMask, apply_mask,
                            find_turning_points, load_series_csv, make_split,
                            scaler_apply, scaler_fit, scaler_invert,
                            seasonal_decompose_multiplicative,
                            target_2d_missing_disk, target_2d_surface,
                            target_exp1, target_exp2_gap, target_intro_spike)
from cauchynet.errors import (DegenerateRange, NonPositiveValue, ParseError,
                              ValidationError)

# 40-digit evaluations rounded to 17 significant digits; regression anchors
# for the synthetic targets at 11 fixed abscissae each.

INTRO_SPIKE_TABLE = [
    (-1.0, 1.6287914963649115), (-0.8, 1.6774779959194373),
    (-0.6, 2.3048408937119687), (-0.4, 3.9460096945205785),
    (-0.2, 7.4353575266049646), (0.0, 15.384615384615385),
    (0.2, 40.564642473395035), (0.4, 200.93203908596723),
    (0.6, 200.9738476308782), (0.8, 40.675463180551151),
    (1.0, 15.525735392675252),
]

EXP1_TABLE = [
    (-1.0, -27.957214331525136), (-0.8, -4.6496857088708421),
    (-0.6, 162.06266281553455), (-0.4, -19.593319875839468),
    (-0.2, -25.672843702882712), (0.0, -26.306235455550377),
    (0.2, 54.557978956970803), (0.4, -96.382422971996094),
    (0.6, -37.727527023490481), (0.8, 86.921151353052917),
    (1.0, -25.238157094808349),
]

EXP2_GAP_TABLE = [
    (-2.0, -1.4793598714713304), (-1.6, -0.39127933544993768),
    (-1.2, -0.11737637984807084), (-0.8, 0.25058013823879377),
    (-0.4, 1.5618142473343538), (0.0, 0.97742146682742017),
    (0.4, -0.31725854572198559), (0.8, -0.043702044037442316),
    (1.2, -0.36599823242036048), (1.6, -1.0860545345594647),
    (2.0, 0.22887293977346017),
]

DISK2D_TABLE = [
    (-0.8, -0.8, 2.2386407766990291), (-0.8, 0.8, 0.95864077669902892),
    (0.8, -0.8, 0.88158730158730137), (0.8, 0.8, 2.1615873015873015),
    (0.0, 0.0, 2.8333333333333333), (0.4, -0.2, 2.5334328358208955),
    (-0.4, 0.2, 2.5763218390804597), (0.2, 0.6, 2.5426950354609929),
    (-0.6, -0.2, 2.5877248677248677), (0.7, 0.1, 2.3735363457760315),
    (-0.1, -0.7, 2.4089694041867956),
]

SURFACE2D_TABLE = [
    (-1.5, -1.5, -2.1120689655172414), (-1.5, 1.5, 11.387931034482759),
    (1.5, -1.5, 2.3879310344827586), (1.5, 1.5, 6.8879310344827586),
    (0.0, 0.0, 0.2), (0.75, -0.3, 0.15727528089887642),
    (-0.75, 0.3, 1.9572752808988764), (0.3, 1.2, 4.9664636542239683),
    (-1.2, -0.3, 0.42527950310559001), (1.1, 0.2, 1.7910305958132047),
    (-0.2, -1.1, -2.0715873015873017),
]


@pytest.mark.parametrize("x,expected", INTRO_SPIKE_TABLE)
def test_intro_spike_table(x, expected):
    assert target_intro_spike(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,expected", EXP1_TABLE)
def test_exp1_table(x, expected):
    assert target_exp1(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,expected", EXP2_GAP_TABLE)
def test_exp2_gap_table(x, expected):
    assert target_exp2_gap(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,y,expected", DISK2D_TABLE)
def test_disk2d_table(x, y, expected):
    assert target_2d_missing_disk(x, y) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,y,expected", SURFACE2D_TABLE)
def test_surface2d_table(x, y, expected):
    assert target_2d_surface(x, y) == pytest.approx(expected, rel=1e-13)


def test_intro_spike_peak_value():
    assert target_intro_spike(0.5) == pytest.approx(np.sin(1.5) + 400, rel=1e-15)


def test_intro_spike_rational_part_symmetric():
    for d in (0.1, 0.25, 0.4):
        lhs = target_intro_spike(0.5 + d) - target_intro_spike(0.5 - d)
        rhs = np.sin(3 * (0.5 + d)) - np.sin(3 * (0.5 - d))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_exp1_sign_zero_convention():
    # sign(0) = 0 kills the oscillatory term at the origin
    assert target_exp1(0.0) == pytest.approx(1 / 0.365 - 40 * np.exp(-0.32), rel=1e-14)


def test_exp1_continuous_at_zero():
    assert abs(target_exp1(1e-9) - target_exp1(-1e-9)) < 1e-6


def test_exp1_peak_at_rational_center():
    assert target_exp1(-0.6) > 150.0


def test_disk2d_not_symmetric():
    assert target_2d_missing_disk(1.0, 0.0) != target_2d_missing_disk(0.0, 1.0)
    assert target_2d_missing_disk(1.0, 0.0) == pytest.approx(1.8)


def test_turning_points_of_sine():
    pts = find_turning_points(np.sin, 0.0, 2 * np.pi)
    assert len(pts) == 2
    assert pts[0] == pytest.approx(np.pi / 2, abs=1e-6)
    assert pts[1] == pytest.approx(3 * np.pi / 2, abs=1e-6)


def test_turning_points_of_gap_target():
    pts = find_turning_points(target_exp2_gap, -2.0, 2.0)
    assert len(pts) == 6


def test_turning_points_constant_function():
    assert find_turning_points(lambda x: np.ones_like(np.asarray(x, float)) * 3.0,
                               0.0, 1.0) == []


# -- splits and masks --------------------------------------------------------


def test_split_sizes_300():
    xs = np.linspace(-1, 1, 300)
    ds = make_split(xs, target_exp1(xs), (0.5, 0.25, 0.25), Rng(10))
    assert (len(ds.train_y), len(ds.val_y), len(ds.test_y)) == (150, 75, 75)


def test_split_partitions_input():
    xs = np.linspace(0, 1, 101)
    ys = xs * 2
    ds = make_split(xs, ys, (0.5, 0.25, 0.25), Rng(4))
    together = np.concatenate([ds.train_x[:, 0], ds.val_x[:, 0], ds.test_x[:, 0]])
    np.testing.assert_array_equal(np.sort(together), xs)
    assert len(set(together)) == 101


def test_split_deterministic():
    xs = np.linspace(0, 1, 60)
    a = make_split(xs, xs, (0.5, 0.25, 0.25), Rng(9))
    b = make_split(xs, xs, (0.5, 0.25, 0.25), Rng(9))
    np.testing.assert_array_equal(a.train_x, b.train_x)


def test_disk_mask_geometry():
    rng = Rng(12)
    pts = np.array([[rng.uniform_in(-0.8, 0.8), rng.uniform_in(-0.8, 0.8)]
                    for _ in range(2000)])
    vals = target_2d_missing_disk(pts[:, 0], pts[:, 1])
    mask = DiskMask(radius=0.3, center=(0.0, 0.0))
    (vis_x, _), (hid_x, _) = apply_mask(pts, vals, mask)
    assert len(vis_x) + len(hid_x) == 2000
    assert np.all(hid_x[:, 0] ** 2 + hid_x[:, 1] ** 2 <= 0.09 + 1e-15)
    assert np.all(vis_x[:, 0] ** 2 + vis_x[:, 1] ** 2 > 0.09)


def test_interval_mask_routes_all_gap_points():
    centers = find_turning_points(target_exp2_gap, -2.0, 2.0)
    mask = IntervalMask(half_width=0.15, centers=tuple(centers))
    xs = np.linspace(-2, 2, 500)
    (vis_x, _), (hid_x, _) = apply_mask(xs, target_exp2_gap(xs), mask)
    for c in centers:
        assert np.all(np.abs(vis_x[:, 0] - c) > 0.15)
    assert np.all(np.min(np.abs(hid_x - np.asarray(centers)[None, :]), axis=1) <= 0.15)


# -- scaler -------------------------------------------------------------------


def test_scaler_midpoint():
    st = scaler_fit([0.0, 10.0])
    assert scaler_apply(5.0, st) == pytest.approx(0.5)


def test_scaler_round_trip():
    rng = Rng(33)
    st = scaler_fit([-4.0, 9.0], -1.0, 1.0)
    for _ in range(1000):
        v = rng.uniform_in(-20, 20)
        assert scaler_invert(scaler_apply(v, st), st) == pytest.approx(v, abs=1e-12)


def test_scaler_symmetric_range():
    st = scaler_fit([2.0, 4.0], -1.0, 1.0)
    assert scaler_apply(2.0, st) == pytest.approx(-1.0)
    assert scaler_apply(4.0, st) == pytest.approx(1.0)


def test_scaler_degenerate_range():
    with pytest.raises(DegenerateRange):
        scaler_fit([3.0, 3.0])


# -- decomposition -------------------------------------------------------------


def test_decompose_recovers_constructed_factors():
    period = 4
    seasonal = np.array([0.8, 1.1, 1.3, 0.8])
    seasonal = seasonal / seasonal.mean()
    trend_c = 5.0
    n = 48
    series = trend_c * np.tile(seasonal, n // period)
    dec = seasonal_decompose_multiplicative(series, period)
    ok = np.isfinite(dec.trend)
    np.testing.assert_allclose(dec.trend[ok], trend_c, rtol=1e-9)
    np.testing.assert_allclose(dec.seasonal[:period],
                               seasonal, rtol=1e-9)
    np.testing.assert_allclose(dec.residual[ok], 1.0, rtol=1e-9)


def test_decompose_reconstructs_series():
    rng = Rng(21)
    n, period = 60, 5
    series = np.array([10 + 0.1 * i + rng.uniform() for i in range(n)])
    dec = seasonal_decompose_multiplicative(series, period)
    ok = np.isfinite(dec.trend)
    np.testing.assert_allclose((dec.trend * dec.seasonal * dec.residual)[ok],
                               series[ok], rtol=1e-9)
    assert dec.seasonal[:period].mean() == pytest.approx(1.0, abs=1e-9)


def test_decompose_constant_series():
    dec = seasonal_decompose_multiplicative(np.full(24, 7.0), 6)
    ok = np.isfinite(dec.trend)
    np.testing.assert_allclose(dec.seasonal, 1.0, rtol=1e-12)
    np.testing.assert_allclose(dec.residual[ok], 1.0, rtol=1e-12)


def test_decompose_even_period_window():
    # linear trend times a period-2 pattern: even-period window recovers it
    n, period = 30, 2
    seasonal = np.array([0.9, 1.1])
    trend = 3.0 + 0.25 * np.arange(n)
    series = trend * np.tile(seasonal, n // period)
    dec = seasonal_decompose_multiplicative(series, period)
    ok = np.isfinite(dec.trend)
    np.testing.assert_allclose(dec.trend[ok], trend[ok], rtol=0.02)


def test_decompose_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        seasonal_decompose_multiplicative(np.array([1.0, 0.0] * 6), 2)


def test_decompose_rejects_short_series():
    with pytest.raises(ValidationError):
        seasonal_decompose_multiplicative(np.ones(7), 4)


# -- CSV ----------------------------------------------------------------------


def test_load_series_csv(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("t,y\n0,1.5\n1,2.5\n")
    np.testing.assert_array_equal(load_series_csv(p, "y"), [1.5, 2.5])
    # a spreadsheet's UTF-8 byte-order mark does not hide the first column's name
    p.write_bytes(b"\xef\xbb\xbfy,t\n1.5,0\n2.5,1\n")
    np.testing.assert_array_equal(load_series_csv(p, "y"), [1.5, 2.5])


def test_load_series_missing_column(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("t,y\n0,1\n")
    with pytest.raises(ParseError, match="available.*'t', 'y'"):
        load_series_csv(p, "z")


def test_load_series_bad_cell_cites_row(tmp_path):
    p = tmp_path / "series.csv"
    rows = ["t,y"] + [f"{i},{i * 1.5}" for i in range(6)] + ["6,oops"]
    p.write_text("\n".join(rows) + "\n")
    with pytest.raises(ParseError, match="row 7"):
        load_series_csv(p, "y")


@pytest.mark.parametrize("content,where", [
    (b"t,y\n0,1\n1,\xff2\n", "row 2"),
    (b"t,y\n0,1\n1,2\n2,3\n3,4,\xc3(\n", "row 4"),        # in another column
    (b"\xfe\xfft,y\n0,1\n", "header"),
    (b"t,y\n0,1\n1,nan\n2,3\n", "row 2"),
    (b"t,y\n0,1\n1,inf\n", "row 2"),
    (b"t,y\n0,-Infinity\n", "row 1"),
    (b"t,y\n0,1e999\n", "row 1"),
    (b"t,y\n0,1\n1," + b"9" * (csv.field_size_limit() + 1) + b"\n", "row 2"),
], ids=["non-utf8", "non-utf8-other-column", "non-utf8-header", "nan", "inf",
        "minus-infinity", "overflow", "csv-error"])
def test_load_series_rejects_bad_rows(tmp_path, content, where):
    p = tmp_path / "series.csv"
    p.write_bytes(content)
    with pytest.raises(ParseError, match=f"^{re.escape(str(p))}: {where}: "):
        load_series_csv(p, "y")


# CSV-like text: numbers, nan/inf spellings, separators, quotes and line ends,
# mixed with any other character UTF-8 can encode
_CSV_TEXT = st.text(st.sampled_from(list('0123456789.-+eEinfatyIN,;"\n\r \t\x00'))
                    | st.characters(exclude_categories=["Cs"]))
# "t,value" rows whose value is often a number, a non-finite one or empty
_CSV_ROWS = st.lists(st.tuples(st.integers(0, 9), st.sampled_from(
    ["1", " 2.5", "-3e2", "nan", "inf", "-Infinity", "1e999", "", "x"]) | _CSV_TEXT)).map(
        lambda rows: "".join(f"{t},{v}\n" for t, v in rows).encode())


@settings(max_examples=100, deadline=None)
@given(head=st.sampled_from([b"", b"t,y\n", b"y\r\n"]),
       body=st.binary() | _CSV_TEXT.map(str.encode) | _CSV_ROWS)
def test_load_series_returns_finite_floats_or_raises_parse_error(head, body):
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "series.csv"
        p.write_bytes(head + body)
        try:
            series = load_series_csv(p, "y")
        except ParseError as exc:
            assert str(exc).startswith(f"{p}: ")
        else:
            assert series.dtype == float and series.ndim == 1
            assert np.isfinite(series).all()
