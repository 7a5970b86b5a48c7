"""File formats: CSV tables and versioned JSON documents.

Every table and document the library writes goes through here, so the CSV
dialect, the JSON layout and what a malformed document raises are fixed in
one place.  Readers check the version, the required fields and the type and
shape of every value before building anything, and raise SchemaError on any
defect.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, fields

import numpy as np

from .data import ScalerState
from .errors import SchemaError


def write_csv(path, header, rows) -> None:
    """One header row, then `rows`, in the default csv dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, doc: dict) -> None:
    """Indented JSON with a trailing newline; floats keep 17 digits (repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def read_json(path, version: int) -> dict:
    """Load a JSON object and check its version."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if _field(doc, "version", path) != version:
        raise SchemaError(f"{path}: unsupported version {doc['version']!r}")
    return doc


def _field(doc: dict, key: str, path):
    if key not in doc:
        raise SchemaError(f"{path}: missing field {key!r}")
    return doc[key]


def read_number(doc: dict, key: str, path):
    """A finite JSON number (bools excluded), returned as stored."""
    val = _field(doc, key, path)
    if type(val) not in (int, float) or not math.isfinite(val):
        raise SchemaError(f"{path}: {key!r} must be a finite number, got {val!r}")
    return val


def read_int(doc: dict, key: str, path) -> int:
    """A positive JSON integer (bools excluded)."""
    val = _field(doc, key, path)
    if type(val) is not int or val < 1:
        raise SchemaError(f"{path}: {key!r} must be a positive integer, got {val!r}")
    return val


def read_array(doc: dict, key: str, shape: tuple, path) -> np.ndarray:
    """A finite float array of the given shape."""
    val = _field(doc, key, path)
    try:
        arr = np.asarray(val)
    except ValueError:                       # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape:
        raise SchemaError(f"{path}: {key!r} must be a numeric array of shape "
                          f"{shape}, got {val!r:.60}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{path}: {key!r} has non-finite values")
    return arr


def read_complex(doc: dict, key: str, shape: tuple, path) -> np.ndarray:
    """doc[key_re] + 1j*doc[key_im], each part checked for `shape` before
    combining, so a short part cannot broadcast."""
    re = read_array(doc, f"{key}_re", shape, path)
    im = read_array(doc, f"{key}_im", shape, path)
    return re + 1j * im


def scaler_doc(scaler: ScalerState) -> dict:
    return asdict(scaler)


def read_scaler(doc: dict, path) -> ScalerState:
    sc = _field(doc, "scaler", path)
    if not isinstance(sc, dict):
        raise SchemaError(f"{path}: 'scaler' must be an object")
    scaler = ScalerState(*(read_number(sc, f.name, path) for f in fields(ScalerState)))
    if not (scaler.max > scaler.min and scaler.range_hi > scaler.range_lo):
        raise SchemaError(f"{path}: scaler ranges must be increasing, got {sc!r}")
    return scaler
