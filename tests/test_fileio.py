import json

import pytest

from cauchynet.baseline import init_mlp, load_mlp_checkpoint, save_mlp_checkpoint
from cauchynet.complex_linalg import Rng
from cauchynet.data import ScalerState
from cauchynet.errors import SchemaError
from cauchynet.fileio import write_csv
from cauchynet.model import init_xavier_complex, load_checkpoint, save_checkpoint

SCALER = ScalerState(-1.5, 2.0, 0.0, 1.0)


def _save_model(path):
    save_checkpoint(init_xavier_complex(3, 2, Rng(1)), SCALER, path)


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
