"""Model specification (JSON) and measurement data (JSON Lines) files.

Model file keys: n_x, n_w, n_v, tau, F, G, E, H, D, basis, alpha_true?,
init?.  Each of F/G/E/H/D is either one matrix (constant over k) or an array
of per-step matrices of length tau+1; ``basis`` is an array of {"BQ": ...,
"BR": ...} pairs; ``init`` holds {"mean": [...], "cov": [[...]]} and defaults
to mean 1, covariance I.  G may be omitted for input-free models.

Data files are JSON Lines with one record per time step:
    {"k": 0, "z": [...], "u": [...]}
where "u" is optional and "z" may change length with k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, ValidationError
from .model import InitialCondition, LtvModel, MeasurementData, NoiseStructure

__all__ = ["ModelBundle", "load_model", "save_model", "read_data", "write_data"]


@dataclass
class ModelBundle:
    model: LtvModel
    structure: NoiseStructure
    alpha_true: np.ndarray | None
    init: InitialCondition


def _nesting_depth(value) -> int:
    depth = 0
    v = value
    while isinstance(v, list):
        depth += 1
        if not v:
            break
        v = v[0]
    return depth


def _parse_matrix_entry(value, key: str):
    depth = _nesting_depth(value)
    if depth == 2:
        return np.asarray(value, dtype=float)
    if depth == 3:
        return [np.asarray(m, dtype=float) for m in value]
    raise ValidationError(
        [f"'{key}' must be a matrix (list of rows) or an array of matrices"]
    )


def load_model(path) -> ModelBundle:
    """Read a model specification file."""
    with open(path) as fh:
        raw = json.load(fh)
    for key in ("n_x", "n_w", "n_v", "tau", "F", "E", "H", "D", "basis"):
        if key not in raw:
            raise ValidationError([f"model file is missing required key '{key}'"])
    tau = int(raw["tau"])
    mats = {}
    for key in ("F", "G", "E", "H", "D"):
        if key == "G" and key not in raw:
            mats[key] = None
            continue
        mats[key] = _parse_matrix_entry(raw[key], key)
    model = LtvModel.create(
        n_x=raw["n_x"], n_w=raw["n_w"], n_v=raw["n_v"], tau=tau,
        F=mats["F"], G=mats["G"], E=mats["E"], H=mats["H"], D=mats["D"],
    )
    pairs = []
    for i, entry in enumerate(raw["basis"]):
        if "BQ" not in entry or "BR" not in entry:
            raise ValidationError([f"basis entry {i} needs both 'BQ' and 'BR'"])
        pairs.append((np.asarray(entry["BQ"], dtype=float),
                      np.asarray(entry["BR"], dtype=float)))
    structure = NoiseStructure.from_pairs(pairs)
    alpha_true = None
    if raw.get("alpha_true") is not None:
        alpha_true = np.asarray(raw["alpha_true"], dtype=float)
    if raw.get("init") is not None:
        init = InitialCondition(
            mean=np.asarray(raw["init"]["mean"], dtype=float),
            cov=np.asarray(raw["init"]["cov"], dtype=float),
        )
    else:
        init = InitialCondition.default(model.n_x)
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
    """Write measurements (and inputs, when present) as JSON Lines."""
    with open(path, "w") as fh:
        for k, z in enumerate(data.zs):
            record = {"k": k, "z": np.atleast_1d(z).tolist()}
            if data.us is not None:
                record["u"] = np.atleast_1d(data.us[k]).tolist()
            fh.write(json.dumps(record) + "\n")


def _finite_entry(record: dict, key: str, line_no: int) -> np.ndarray:
    value = np.asarray(record[key], dtype=float)
    if not np.all(np.isfinite(value)):
        raise DataError(f"line {line_no + 1}: '{key}' is not finite")
    return value


def read_data(path) -> MeasurementData:
    """Read a JSON Lines data file; records must cover k = 0..tau in order."""
    zs: list[np.ndarray] = []
    us: list[np.ndarray] = []
    have_u = 0
    with open(path) as fh:
        for line_no, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if not isinstance(record, dict) or "z" not in record:
                raise DataError(
                    f"line {line_no + 1}: expected a JSON object with a 'z' entry"
                )
            if record.get("k") != len(zs):
                raise DataError(
                    f"line {line_no + 1}: expected record k={len(zs)}, got {record.get('k')}"
                )
            zs.append(_finite_entry(record, "z", line_no))
            if "u" in record:
                have_u += 1
                us.append(_finite_entry(record, "u", line_no))
    if not zs:
        raise DataError(f"no records in {Path(path)}")
    if have_u not in (0, len(zs)):
        raise DataError("some records carry 'u' and some do not")
    return MeasurementData(zs=zs, us=us if have_u else None)
