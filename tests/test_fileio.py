import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchynet.baseline import (MlpModel, init_mlp, load_mlp_checkpoint, mlp_predict,
                                save_mlp_checkpoint)
from cauchynet.complex_linalg import Rng
from cauchynet.data import ScalerState
from cauchynet.errors import SchemaError
from cauchynet.fileio import write_csv
from cauchynet.model import (CauchyNetModel, init_elliptical, load_checkpoint,
                             predict, save_checkpoint)

SCALER = ScalerState(-1.5, 2.0, 0.0, 1.0)


def _save_model(path):
    save_checkpoint(init_elliptical(3, 2, Rng(1)), SCALER, path)


def _save_mlp(path):
    save_mlp_checkpoint(init_mlp(3, 2, Rng(1)), SCALER, path)


# format -> (save, load, a 1-D array to shorten, a 2-D array to corrupt)
FORMATS = {
    "model": (_save_model, load_checkpoint, "C_im", "B_re"),
    "mlp": (_save_mlp, load_mlp_checkpoint, "W2", "W1"),
}


def _shorten(doc, short, grid):
    doc[short] = doc[short][:1]          # e.g. "C_im": [0.5] must not broadcast


def _non_numeric(doc, short, grid):
    doc[grid] = [["x"] * len(row) for row in doc[grid]]


def _non_finite(doc, short, grid):
    doc[grid][0][0] = float("inf")


def _missing_field(doc, short, grid):
    del doc[short]


def _bad_version(doc, short, grid):
    doc["version"] = 99


def _scaler_key(doc, short, grid):
    del doc["scaler"]["max"]


def _scaler_text(doc, short, grid):
    doc["scaler"]["min"] = "0"


def _scaler_flat(doc, short, grid):
    doc["scaler"]["max"] = doc["scaler"]["min"]


DEFECTS = {"short-array": _shorten, "non-numeric": _non_numeric,
           "non-finite": _non_finite, "missing-field": _missing_field,
           "bad-version": _bad_version, "scaler-key": _scaler_key,
           "scaler-text": _scaler_text, "scaler-flat": _scaler_flat,
           "not-json": None}


@pytest.mark.parametrize("fmt,defect", [
    (fmt, defect) for fmt in FORMATS for defect in DEFECTS])
def test_malformed_document_raises_schema_error(tmp_path, fmt, defect):
    save, load, short, grid = FORMATS[fmt]
    path = tmp_path / "doc.json"
    save(path)
    load(path)                           # the intact file loads
    if DEFECTS[defect] is None:
        path.write_text("{")
    else:
        doc = json.loads(path.read_text())
        DEFECTS[defect](doc, short, grid)
        path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load(path)


def test_write_csv_uses_default_dialect(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[1, "x,y"], [repr(0.1), ""]])
    assert path.read_bytes() == b'a,b\r\n1,"x,y"\r\n0.1,\r\n'


# Finite floats, with the edges a repr round trip could get wrong drawn often.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]
FINITE = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))
SCALERS = st.builds(
    lambda lo_hi, range_lo_hi: ScalerState(*lo_hi, *range_lo_hi),
    *[st.lists(FINITE, min_size=2, max_size=2, unique=True).map(sorted)] * 2)


def _outcome(fn):
    """fn()'s arrays as bytes, or the type and text of what it raised."""
    try:
        return [np.asarray(a).tobytes() for a in fn()]
    except Exception as exc:
        return type(exc), str(exc)


def _check_round_trip(save, load, predict_fn, model, scaler, X):
    """Save and load model and scaler; returns the loaded model."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save(model, scaler, path)
        loaded, sc = load(path)
    assert loaded.params.tobytes() == model.params.tobytes()
    assert repr(sc) == repr(scaler)            # repr tells -0.0 from 0.0
    assert _outcome(lambda: predict_fn(loaded, X)) == _outcome(lambda: predict_fn(model, X))
    return loaded


@settings(max_examples=60, deadline=None)
@given(data=st.data(), h=st.integers(1, 16), m=st.integers(1, 3),
       epsilon=st.floats(min_value=0.0, allow_infinity=False), scaler=SCALERS)
def test_checkpoint_round_trip_is_bit_exact_for_any_finite_weights(data, h, m, epsilon,
                                                                   scaler):
    parts = np.array(data.draw(st.lists(FINITE, min_size=2 * h * (m + 1),
                                        max_size=2 * h * (m + 1))))
    B, C = parts[:2 * h * m].view(complex).reshape(h, m), parts[2 * h * m:].view(complex)
    X = np.array(data.draw(st.lists(FINITE, min_size=m, max_size=4 * m)))
    model = CauchyNetModel(h, m, epsilon, B, C)
    loaded = _check_round_trip(save_checkpoint, load_checkpoint, predict, model, scaler,
                               X[:len(X) // m * m].reshape(-1, m))
    assert repr(loaded.epsilon) == repr(epsilon)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), h=st.integers(1, 16), m=st.integers(1, 3), scaler=SCALERS)
def test_mlp_checkpoint_round_trip_is_bit_exact_for_any_finite_weights(data, h, m, scaler):
    w = np.array(data.draw(st.lists(FINITE, min_size=h * (m + 2) + 1,
                                    max_size=h * (m + 2) + 1)))
    X = np.array(data.draw(st.lists(FINITE, min_size=m, max_size=4 * m)))
    model = MlpModel(w[:h * m].reshape(h, m), w[h * m:h * m + h], w[h * m + h:-1], w[-1])
    _check_round_trip(save_mlp_checkpoint, load_mlp_checkpoint, mlp_predict, model, scaler,
                      X[:len(X) // m * m].reshape(-1, m))
