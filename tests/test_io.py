import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mdmest import (KNOWN_INPUT, DataError, LtvModel, MeasurementData, NoAnnihilator,
                    NoiseStructure, ValidationError, build_design, preset, simulate)
from mdmest import io
from mdmest.benchmarks import benchmark_input_signal
from conftest import reference_read_data
from test_geometry import bitwise_equal


class TestModelFiles:
    def test_round_trip_constant_model(self, tmp_path, scalar_lti_model,
                                       scalar_structure):
        path = tmp_path / "model.json"
        io.save_model(path, scalar_lti_model, scalar_structure,
                      alpha_true=[2.0, 1.0])
        bundle = io.load_model(path)
        assert bundle.model.n_x == 1
        assert bundle.model.is_lti
        assert np.array_equal(bundle.model.F[0], [[0.9]])
        assert np.array_equal(bundle.alpha_true, [2.0, 1.0])
        assert np.array_equal(bundle.init.mean, [1.0])  # default

    def test_round_trip_time_varying(self, tmp_path):
        spec = preset("obs-ltv", tau=12)
        path = tmp_path / "model.json"
        io.save_model(path, spec.model, spec.structure,
                      alpha_true=spec.alpha_true, init=spec.init)
        bundle = io.load_model(path)
        assert not bundle.model.is_lti
        for k in (0, 5, 12):
            assert np.array_equal(bundle.model.F[k], spec.model.F[k])
            assert np.array_equal(bundle.model.H[k], spec.model.H[k])
        assert np.array_equal(np.stack(bundle.structure.bq),
                              np.stack(spec.structure.bq))

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n_x": 1}')
        with pytest.raises(ValidationError, match="missing required key"):
            io.load_model(path)

    def test_scalar_matrix_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"n_x": 1, "n_w": 1, "n_v": 1, "tau": 2, "F": 0.9,'
            ' "E": [[1]], "H": [[1]], "D": [[1]], "basis": [{"BQ": [[1]], "BR": [[0]]}]}'
        )
        with pytest.raises(ValidationError):
            io.load_model(path)


class TestDataFiles:
    def test_round_trip_with_inputs(self, tmp_path):
        spec = preset("obs-ltv", tau=9)
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=1)
        path = tmp_path / "data.jsonl"
        io.write_data(path, MeasurementData.from_trajectory(traj))
        data = io.read_data(path)
        assert len(data) == 10
        assert data.us is not None
        for k in range(10):
            assert np.array_equal(data.zs[k], traj.zs[k])
            assert np.array_equal(data.us[k], traj.us[k])

    def test_ragged_measurements_supported(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 0, "z": [1.0]}\n{"k": 1, "z": [2.0, 3.0]}\n')
        data = io.read_data(path)
        assert data.zs[1].shape == (2,)
        assert data.us is None

    def test_out_of_order_records_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 1, "z": [1.0]}\n')
        with pytest.raises(DataError):
            io.read_data(path)

    def test_mixed_u_presence_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"k": 0, "z": [1.0], "u": [0.0]}\n{"k": 1, "z": [2.0]}\n')
        with pytest.raises(DataError):
            io.read_data(path)

    @pytest.mark.parametrize("record", ['{"k": 1, "u": [1.0]}', '[1.0]'])
    def test_record_without_z_rejected(self, tmp_path, record):
        path = tmp_path / "d.jsonl"
        path.write_text('{"k": 0, "z": [1.0], "u": [0.0]}\n' + record + "\n")
        with pytest.raises(DataError, match="line 2: expected a JSON object with a 'z'"):
            io.read_data(path)

    @pytest.mark.parametrize("record", ['{"k": 1, "z": [NaN], "u": [0.0]}',
                                        '{"k": 1, "z": [1.0], "u": [Infinity]}'])
    def test_nonfinite_values_rejected(self, tmp_path, record):
        path = tmp_path / "d.jsonl"
        path.write_text('{"k": 0, "z": [1.0], "u": [0.0]}\n' + record + "\n")
        with pytest.raises(DataError, match="line 2: '[zu]' is not finite"):
            io.read_data(path)

    @pytest.mark.parametrize("key", ["z", "u"])
    @pytest.mark.parametrize("value", ['["a"]', '{"x": 1}', '[[1.0, 2.0], [3.0]]',
                                       '[[1.0]]', '1.0', '[true]'])
    def test_malformed_values_rejected(self, tmp_path, key, value):
        entries = {"z": "[1.0]", "u": "[0.0]", key: value}
        path = tmp_path / "d.jsonl"
        path.write_text('{"k": 0, "z": [1.0], "u": [0.0]}\n'
                        f'{{"k": 1, "z": {entries["z"]}, "u": {entries["u"]}}}\n')
        with pytest.raises(DataError, match=f"line 2: '{key}' must be a flat list "
                           "of numbers"):
            io.read_data(path)

    @pytest.mark.parametrize("n_u", [1, 2, 4])
    def test_write_data_refuses_input_record_counts(self, tmp_path, n_u):
        """Input records that are neither none nor one per measurement
        record raise before the file is created."""
        data = MeasurementData.from_records([np.ones(1)] * 3, [np.zeros(1)] * n_u)
        path = tmp_path / "d.jsonl"
        with pytest.raises(DataError, match=f"^data has 3 measurement records and "
                           f"{n_u} input records"):
            io.write_data(path, data)
        assert not path.exists()

    def test_write_data_without_input_records_writes_no_u(self, tmp_path):
        data = MeasurementData(np.ones(3), np.ones(3, dtype=int), np.zeros(0),
                               np.zeros(0, dtype=int))
        path = tmp_path / "d.jsonl"
        io.write_data(path, data)
        back = io.read_data(path)
        assert back.u is None
        assert bitwise_equal(back.z, data.z)

    def test_earlier_nonfinite_line_is_reported_before_a_malformed_one(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"k": 0, "z": [1.0], "u": [NaN]}\n'
                        '{"k": 1, "z": ["a"], "u": [0.0]}\n')
        with pytest.raises(DataError, match="line 1: 'u' is not finite"):
            io.read_data(path)


@st.composite
def record_sequences(draw):
    """1-6 measurement records and, or None, as many input records: vectors
    of 0-3 finite floats, -0.0 and subnormals among them."""
    vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       max_size=3).map(lambda v: np.array(v, dtype=float))
    n = draw(st.integers(1, 6))
    zs = draw(st.lists(vectors, min_size=n, max_size=n))
    return zs, draw(st.none() | st.lists(vectors, min_size=n, max_size=n))


def records_model(n_z, n_u):
    """A scalar-state model whose step k has n_z[k] measurements (and, when
    ``n_u`` is given, n_u[k] inputs), and its two-parameter structure."""
    tau = len(n_z) - 1
    model = LtvModel.create(
        n_x=1, n_w=1, n_v=3, tau=tau, F=[[0.5]], E=[[1.0]],
        G=None if n_u is None else [np.ones((1, n)) for n in n_u],
        H=[np.ones((n, 1)) for n in n_z], D=[np.eye(3)[:n] for n in n_z])
    structure = NoiseStructure.from_pairs([([[1.0]], np.zeros((3, 3))),
                                           ([[0.0]], np.eye(3))])
    return model, structure


def obs_or_error(design, data):
    try:
        return design.with_data(data).obs
    except DataError as err:
        return str(err)


@pytest.mark.bitwise
@given(record_sequences())
def test_measurement_records_read_back(case):
    """``from_records`` keeps the records bit for bit, a data file gives
    them back bit for bit, and ``with_data`` reads the same residues (or
    the same error) from both."""
    zs, us = case
    data = MeasurementData.from_records(zs, us)
    assert len(data) == len(zs)
    for got, want in ((data.zs, zs), (data.us, us)):
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            assert all(bitwise_equal(a, b) for a, b in zip(got, want))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        io.write_data(path, data)
        back = io.read_data(path)
    for name in ("z", "u"):
        assert bitwise_equal(getattr(back, name), getattr(data, name)), name
        assert bitwise_equal(getattr(back, f"n_{name}"), getattr(data, f"n_{name}")), name
    model, structure = records_model(data.n_z.tolist(),
                                     None if us is None else data.n_u.tolist())
    try:
        design = build_design(model, structure, len(data), KNOWN_INPUT)
    except NoAnnihilator:
        return
    got, want = obs_or_error(design, back), obs_or_error(design, data)
    assert got == want if isinstance(want, str) else bitwise_equal(got, want)


NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-10 ** 6, 10 ** 6)).map(json.dumps)
# an integer of more digits than Python converts (json.loads raises a
# ValueError that is not a JSONDecodeError)
LONG_INT = "9" * (sys.get_int_max_str_digits() + 700)
# JSON texts a record value may be mutated to: not numbers, not finite,
# beyond the largest float (2**1024 - 2**970 rounds up to 2**1024),
# integers at the top of the float range that still convert, and one that
# does not decode
BAD_VALUE = st.sampled_from([
    "true", "false", "null", '"a"', "[1.0]", "{}", "NaN", "Infinity", "-Infinity",
    str(10 ** 400), str(-10 ** 400), str(2 ** 1024 - 2 ** 970),
    str(2 ** 1024 - 2 ** 971), str(10 ** 30), LONG_INT])
BAD_K = st.sampled_from([None, "{k}.0", "true", "false", "{k1}", "null", '"{k}"', "-1"])
BAD_LIST = st.sampled_from(["null", "1.0", '"abc"', "[[1.0, 2.0], [3.0]]", "{}", "[]"])
BAD_LINE = st.sampled_from([
    '{"k": 0, "z": [1.0,', "x", '{"k": 0, "z": [1.0]} {}', "[1.0]", "3", '"s"',
    "{'k': 0}", "[" * 3, "{}", "null"])


def render(record) -> str:
    """One JSON Lines record from its text parts: a k text (None drops the
    key) and z and u lists of value texts, or a whole text, or None."""
    parts = [] if record["k"] is None else [f'"k": {record["k"]}']
    for key in ("z", "u"):
        value = record[key]
        if value is not None:
            text = value if isinstance(value, str) else f"[{', '.join(value)}]"
            parts.append(f'"{key}": {text}')
    return "{" + ", ".join(parts) + "}"


@st.composite
def data_files(draw):
    """The text of a data file: 0-6 valid records (with or without inputs),
    then 0-3 mutations, each of one line; the lines end in LF, CRLF or CR."""
    n = draw(st.integers(0, 6))
    vectors = st.lists(NUMBER, max_size=3)
    with_u = draw(st.booleans())
    records = [{"k": str(k), "z": draw(vectors), "u": draw(vectors) if with_u else None}
               for k in range(n)]
    lines = [None] * n          # a mutated line's whole text
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["value", "k", "swap", "u", "z", "line", "line",
                                     "blank"]))
        if kind == "blank" or not records:
            at = draw(st.integers(0, len(records)))
            records.insert(at, None)
            lines.insert(at, draw(st.sampled_from(["", "  ", "\t", " \t "])))
            continue
        i = draw(st.integers(0, len(records) - 1))
        record = records[i]
        if record is None:
            continue
        if kind == "value":
            key = "u" if record["u"] is not None and draw(st.booleans()) else "z"
            if isinstance(record[key], list):
                pos = draw(st.integers(0, len(record[key])))
                record[key] = (record[key][:pos] + [draw(BAD_VALUE)]
                               + record[key][pos + 1:])
        elif kind == "k":
            bad = draw(BAD_K)
            record["k"] = None if bad is None else bad.format(k=i, k1=i + 1)
        elif kind == "swap" and i + 1 < len(records):
            records[i], records[i + 1] = records[i + 1], records[i]
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif kind in ("u", "z"):
            record[kind] = draw(st.none() | BAD_LIST | vectors)
        elif kind == "line":
            lines[i] = draw(BAD_LINE)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(render(r) if line is None else line
                    for r, line in zip(records, lines))
    return text + end if text and draw(st.booleans()) else text


def read_outcome(read, path):
    """The arrays ``read(path)`` gives, as (dtype, shape, bytes), or the
    type and message of what it raises."""
    try:
        data = read(path)
    except Exception as err:    # compared, not swallowed
        return type(err), str(err)
    return tuple(None if a is None else (a.dtype.str, a.shape, a.tobytes())
                 for a in (data.z, data.n_z, data.u, data.n_u))


@pytest.mark.bitwise
@given(data_files())
@example('{"k": 0, "z": [1.0]}\n{"k": 1, "z": [true]}\n{"k": 2, "z": [1.0],\n')
@example('{"k": 0, "z": [1.0]}\n{"k": 1, "z": [1.0],\n{"k": 2, "z": [NaN]}\n')
@example('{"k": 0, "z": [1.0]}\r\n\r\n {"k": 1.0, "z": []} \r\n{"k": 2, "z": [2]}\r\n')
@example('{"k": false, "z": [1e308, -0.0]}\n{"k": true, "z": [2]}\n')
@example('{"k": 0, "z": [1.0]}\n{"k": 1, "z": [%d]}\n' % 10 ** 400)
@example('{"k": 0, "z": [true]}\n{"k": 1, "z": [%s]}\n' % LONG_INT)
@example('{"k": 0, "z": [1.0]}\n{"k": 1, "z": [%s]}\n{"k": 2, "z": [NaN]}\n' % LONG_INT)
@example('{"k": 0, "z": [1.0], "u": [1]}\n{"k": 1, "z": [1.0], "u": [1, 2]}\n')
@example('{"k": 0, "z": [1.0], "u": [0]}\n{"k": 1, "z": [1.0]}\n')
@example("")
@example(" \n\t\n")
def test_read_data_matches_the_per_line_reader(text):
    """The one-pass ``read_data`` gives the per-line reader's data bit for
    bit, or raises the same exception with the same message: the first bad
    line's, whether it is a malformed record or a line that is not JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert read_outcome(io.read_data, path) == read_outcome(reference_read_data, path)
