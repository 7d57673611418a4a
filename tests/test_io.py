import numpy as np
import pytest

from mdmest import DataError, MeasurementData, ValidationError, preset, simulate
from mdmest import io
from mdmest.benchmarks import benchmark_input_signal


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
