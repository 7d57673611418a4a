import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdmest import (KNOWN_INPUT, DataError, LtvModel, MeasurementData, NoAnnihilator,
                    NoiseStructure, ValidationError, build_design, preset, simulate)
from mdmest import io
from mdmest.benchmarks import benchmark_input_signal
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
