"""File formats: CSV tables and versioned JSON documents.

Every table and document the library writes goes through here, so the CSV
dialect, the JSON layout and what a malformed document raises are fixed in
one place.  Readers check the version, the required fields and the type and
shape of every value before building anything, and raise SchemaError on any
defect; `_check` holds a config to its dataclasses' type hints the same way.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import typing
from dataclasses import MISSING, asdict, fields, is_dataclass

import numpy as np

from .data import ScalerState
from .errors import SchemaError, ValidationError


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
    combining, so a short part cannot broadcast.  The parts are copied in,
    not added, so a -0.0 part keeps its sign."""
    out = np.empty(shape, dtype=complex)
    out.real = read_array(doc, f"{key}_re", shape, path)
    out.imag = read_array(doc, f"{key}_im", shape, path)
    return out


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


def _name(hint) -> str:
    """A type hint as messages spell it: float, tuple[float, float], str | None."""
    if isinstance(hint, type):
        return "None" if hint is type(None) else hint.__name__
    if typing.get_origin(hint) is tuple:
        return str(hint)
    return " | ".join(map(_name, typing.get_args(hint)))


def _check(hint, value, path: str):
    """Return value as the type hint names it, or raise ValidationError.

    An int rejects floats, bools and strings; a float takes an int within
    float range (stored as a float); a tuple takes a list and checks its
    length and each element; a dict becomes the dataclass its hint names.
    A float must be finite.  A union of dataclasses picks the class whose
    default `kind` the dict names; any other union takes its first member
    that fits.  Messages read "<path> must be <type>, got <value>".
    """
    args = typing.get_args(hint)
    if is_dataclass(hint):
        if type(value) is dict:
            return _check_fields(hint, value, path)
    elif typing.get_origin(hint) is tuple:
        if type(value) in (list, tuple):
            elements = args[:1] * len(value) if args[-1] is ... else args
            if len(value) == len(elements):
                return tuple(_check(a, v, f"{path}[{i}]")
                             for i, (a, v) in enumerate(zip(elements, value)))
    elif args:
        members = [a for a in args if a is not type(None)]
        if value is None and len(members) < len(args):
            return None
        if type(value) is dict and all(is_dataclass(a) for a in members):
            kinds = [a.kind for a in members]
            if value.get("kind") not in kinds:
                raise ValidationError([f"{path}.kind must be {' | '.join(map(repr, kinds))}, "
                                       f"got {value.get('kind')!r}"])
            return _check_fields(members[kinds.index(value["kind"])], value, path)
        for member in members:
            try:
                return _check(member, value, path)
            except ValidationError:
                pass
    elif hint is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    elif hint is float and type(value) is float and not math.isfinite(value):
        raise ValidationError([f"{path} must be finite float, got {value!r}"])
    elif type(value) is hint:
        return value
    raise ValidationError([f"{path} must be {_name(hint)}, got {value!r}"])


def _check_fields(cls, doc: dict, path: str):
    """Build dataclass cls from doc, reporting every unknown, missing or
    mistyped field in one ValidationError."""
    where = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    problems = []
    unknown = [f"{where}{k}" for k in doc if k not in hints]
    if unknown:
        problems.append(f"unknown config fields: {unknown}")
    missing = [where + f.name for f in fields(cls) if f.name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        problems.append(f"missing config fields: {missing}")
    checked = {}
    for key in [k for k in doc if k in hints]:
        try:
            checked[key] = _check(hints[key], doc[key], where + key)
        except ValidationError as exc:
            problems += exc.problems
    if problems:
        raise ValidationError(problems)
    return cls(**checked)
