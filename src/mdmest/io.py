"""Model specification (JSON) and measurement data (JSON Lines) files.

Model file keys: n_x, n_w, n_v, tau, F, G, E, H, D, basis, alpha_true?,
init?.  Each of F/G/E/H/D is either one matrix (constant over k) or an array
of per-step matrices of length tau+1 (read as one array when they share a
shape); ``basis`` is an array of {"BQ": ..., "BR": ...} pairs; ``init``
holds {"mean": [...], "cov": [[...]]} and defaults to mean 1, covariance I.
G may be omitted for input-free models.

Data files are JSON Lines with one record per time step:
    {"k": 0, "z": [...], "u": [...]}
where "u" is optional, "z" may change length with k, and each is a flat
list of finite numbers.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .model import (InitialCondition, LtvModel, MatrixSequence, MeasurementData,
                    NoiseStructure)

__all__ = ["ModelBundle", "load_model", "save_model", "read_data", "write_data"]


def _read_text(path) -> str:
    """The text of the file at ``path``, read as UTF-8, as JSON is written.
    A file that is not raises the decoder's UnicodeDecodeError, with the
    file named at the end of its message."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            exc.reason = f"{exc.reason} in {path}"
            raise


def _loads(text: str, fail):
    """json.loads(text), whose JSONDecodeError for text that is not JSON
    passes through; its other errors raise fail(message).  Its one other
    ValueError means a number of more digits than Python converts (at most
    sys.get_int_max_str_digits()), and a RecursionError a value nested
    deeper than Python's recursion limit, the decoder recursing once per
    level."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise fail(f"a number has more than {sys.get_int_max_str_digits()} "
                   "digits") from None
    except RecursionError:
        raise fail("a value is nested too deeply to decode") from None


@dataclass
class ModelBundle:
    model: LtvModel
    structure: NoiseStructure
    alpha_true: np.ndarray | None
    init: InitialCondition


def _array(value, key: str, make=partial(np.asarray, dtype=float)):
    """``make(value)``; any failure is a ValidationError naming ``key``."""
    try:
        return make(value)
    except ValidationError as err:
        raise ValidationError([f"'{key}': {f}" for f in err.findings]) from None
    except (TypeError, ValueError, OverflowError):
        raise ValidationError([f"'{key}' must be a rectangular array of numbers"]) from None


def load_model(path) -> ModelBundle:
    """Read a model specification file; a malformed one raises
    ValidationError naming the key.  n_x, n_w, n_v and tau must be
    nonnegative JSON integers.  Each F/G/E/H/D entry is converted once,
    straight to a MatrixSequence: one array when its matrices share a
    shape.  An empty per-step H or D matrix, as ``save_model`` writes one
    without rows, is read as (0, n_x) or (0, n_v).  A file that is not JSON
    raises ``json.loads``' error, and one that is not UTF-8 text the
    decoder's; a number of more digits than Python converts, or a value
    nested too deeply to decode, raises ValidationError naming the file."""
    raw = _loads(_read_text(path), lambda msg: ValidationError([f"{path}: {msg}"]))
    for key in ("n_x", "n_w", "n_v", "tau", "F", "E", "H", "D", "basis"):
        if key not in raw:
            raise ValidationError([f"model file is missing required key '{key}'"])
    dims = {key: raw[key] for key in ("n_x", "n_w", "n_v", "tau")}
    for key, value in dims.items():
        # JSON's true and false are not integers
        if type(value) is not int:
            raise ValidationError([f"'{key}' must be an integer"])
        if value < 0:
            raise ValidationError([f"'{key}' must be nonnegative, got {value}"])
    for key, cols in (("H", dims["n_x"]), ("D", dims["n_v"])):
        if cols and isinstance(raw[key], list) and [] in raw[key]:
            raw[key] = [np.zeros((0, cols)) if m == [] else m for m in raw[key]]
    per_step = partial(MatrixSequence, tau=dims["tau"])
    mats = {key: _array(raw[key], key, per_step) if key in raw else None
            for key in ("F", "G", "E", "H", "D")}
    model = LtvModel.create(**dims, **mats)
    if not isinstance(raw["basis"], list):
        raise ValidationError(["'basis' must be an array of BQ/BR pairs"])
    pairs = []
    for i, entry in enumerate(raw["basis"]):
        if not isinstance(entry, dict) or "BQ" not in entry or "BR" not in entry:
            raise ValidationError([f"basis entry {i} needs both 'BQ' and 'BR'"])
        pairs.append((_array(entry["BQ"], f"basis[{i}].BQ"),
                      _array(entry["BR"], f"basis[{i}].BR")))
    structure = NoiseStructure.from_pairs(pairs)
    alpha_true = raw.get("alpha_true")
    alpha_true = None if alpha_true is None else _array(alpha_true, "alpha_true")
    init = raw.get("init")
    if init is None:
        init = InitialCondition.default(model.n_x)
    elif not isinstance(init, dict) or "mean" not in init or "cov" not in init:
        raise ValidationError(["'init' needs both 'mean' and 'cov'"])
    else:
        init = InitialCondition(mean=_array(init["mean"], "init.mean"),
                                cov=_array(init["cov"], "init.cov"))
    return ModelBundle(model=model, structure=structure,
                       alpha_true=alpha_true, init=init)


def _matrix_entry_to_json(seq) -> list:
    if seq.is_constant:
        return seq[0].tolist()
    return [seq[k].tolist() for k in range(len(seq))]


def save_model(path, model: LtvModel, structure: NoiseStructure,
               alpha_true=None, init: InitialCondition | None = None) -> None:
    """Write a model specification file."""
    raw = {
        "n_x": model.n_x, "n_w": model.n_w, "n_v": model.n_v, "tau": model.tau,
        "F": _matrix_entry_to_json(model.F),
        "G": _matrix_entry_to_json(model.G),
        "E": _matrix_entry_to_json(model.E),
        "H": _matrix_entry_to_json(model.H),
        "D": _matrix_entry_to_json(model.D),
        "basis": [
            {"BQ": bq.tolist(), "BR": br.tolist()}
            for bq, br in zip(structure.bq, structure.br)
        ],
    }
    if alpha_true is not None:
        raw["alpha_true"] = np.asarray(alpha_true, dtype=float).tolist()
    if init is not None:
        raw["init"] = {"mean": np.asarray(init.mean).tolist(),
                       "cov": np.asarray(init.cov).tolist()}
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_data(path, data: MeasurementData) -> None:
    """Write measurements (and inputs, when present) as JSON Lines.  Input
    records must number none or one per measurement record, as ``read_data``
    reads them back; other counts raise DataError before the file is
    opened."""
    us = data.us
    if us is not None and len(us) not in (0, len(data)):
        raise DataError(f"data has {len(data)} measurement records and {len(us)} "
                        "input records; a data file holds one input record per "
                        "measurement record, or none")
    with open(path, "w") as fh:
        for k, z in enumerate(data.zs):
            record = {"k": k, "z": z.tolist()}
            if us:
                record["u"] = us[k].tolist()
            fh.write(json.dumps(record) + "\n")


def _check_record(record, k: int, line_no: int) -> None:
    """DataError naming the line unless ``record`` is an object with a 'z'
    entry, is record k, and its 'z' (and 'u', when present) is a flat list
    of numbers (JSON's true and false are not numbers), each finite as a
    float; the checks run in that order."""
    if not isinstance(record, dict) or "z" not in record:
        raise DataError(f"line {line_no + 1}: expected a JSON object with a 'z' entry")
    if record.get("k") != k:
        raise DataError(f"line {line_no + 1}: expected record k={k}, got {record.get('k')}")
    for key in ("z", "u"):
        value = record.get(key, [])
        if not isinstance(value, list) or not {int, float}.issuperset(map(type, value)):
            raise DataError(f"line {line_no + 1}: '{key}' must be a flat list of numbers")
        try:
            finite = all(map(math.isfinite, value))
        except OverflowError:   # an integer too large for a float
            finite = False
        if not finite:
            raise DataError(f"line {line_no + 1}: '{key}' is not finite")


def _flat_numbers(values: list):
    """(the lists ``values`` end to end as one float array, their lengths),
    or None unless each is a flat list of finite numbers: one type pass
    over every value, one conversion and one finiteness test."""
    if not all(type(v) is list for v in values):
        return None
    flat = list(chain.from_iterable(values))
    if not {int, float}.issuperset(map(type, flat)):
        return None
    try:
        array = np.array(flat, dtype=float)
    except OverflowError:   # an integer too large for a float
        return None
    if not np.isfinite(array).all():
        return None
    return array, np.array([len(v) for v in values], dtype=int)


def _record_arrays(records: list):
    """((z, n_z), (u, n_u)) of the decoded ``records``, the inputs of those
    that carry 'u'; or None unless every record passes ``_check_record``,
    tested over all records at once."""
    if not (all(type(r) is dict and "z" in r for r in records)
            and [r.get("k") for r in records] == list(range(len(records)))):
        return None
    z = _flat_numbers([r["z"] for r in records])
    u = _flat_numbers([r["u"] for r in records if "u" in r])
    return None if z is None or u is None else (z, u)


def _decode_lines(text: str):
    """(records, their 0-based line numbers, the first line that does not
    decode and its number, or None): each non-blank line is decoded as one
    JSON value, up to the first that is not."""
    decode = json.JSONDecoder().raw_decode
    records, line_nos = [], []
    for line_no, line in enumerate(text.split("\n")):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = decode(line)
        except (ValueError, RecursionError):    # as json.loads(line) raises
            end = None
        if end != len(line):
            return records, line_nos, (line, line_no)
        records.append(record)
        line_nos.append(line_no)
    return records, line_nos, None


def read_data(path) -> MeasurementData:
    """Read a JSON Lines data file; records must cover k = 0..tau in order,
    each 'z' and 'u' a flat list of finite numbers.

    The file is read and decoded in one pass, and every decoded record is
    checked at once.  A malformed record, a number of more digits than
    Python converts, or a value nested too deeply to decode, raises
    DataError naming its line, and a line that is not JSON raises
    ``json.loads``' own error: whichever line comes first, as if each line
    were checked as it is read.  A file that is not UTF-8 text raises the
    decoder's error."""
    records, line_nos, bad_line = _decode_lines(_read_text(path))
    arrays = _record_arrays(records)
    if arrays is None:
        # the first record that fails raises its line's message
        for k, (record, line_no) in enumerate(zip(records, line_nos)):
            _check_record(record, k, line_no)
    if bad_line is not None:
        # json.loads raises for the line that does not decode
        line, line_no = bad_line
        _loads(line, lambda msg: DataError(f"line {line_no + 1}: {msg}"))
    if not records:
        raise DataError(f"no records in {Path(path)}")
    (z, n_z), (u, n_u) = arrays
    if n_u.size not in (0, n_z.size):
        raise DataError("some records carry 'u' and some do not")
    return MeasurementData(z, n_z, *((u, n_u) if n_u.size else ()))
