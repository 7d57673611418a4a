import contextlib
import io as io_
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, strategies as st

from mdmest import LtvModel, NoiseStructure, preset, weighted_mdm
from mdmest import cli, io
from mdmest.cli import main

from conftest import make_switching_h_model, make_switching_h_structure


@pytest.fixture
def obs_ltv_model_file(tmp_path):
    spec = preset("obs-ltv", tau=400)
    path = tmp_path / "model.json"
    io.save_model(path, spec.model, spec.structure,
                  alpha_true=spec.alpha_true, init=spec.init)
    return path


@pytest.fixture
def unknown_input_model_file(tmp_path):
    spec = preset("unobs-unknown-input", tau=300)
    path = tmp_path / "model2.json"
    io.save_model(path, spec.model, spec.structure,
                  alpha_true=spec.alpha_true, init=spec.init)
    return path


class TestSimulateIdentify:
    def test_round_trip(self, tmp_path, obs_ltv_model_file, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--model", str(obs_ltv_model_file),
                     "--seed", "3", "--out", str(out)]) == 0
        assert (out / "data.jsonl").exists()
        meta = json.loads((out / "data.meta.json").read_text())
        assert meta["seed"] == 3

        assert main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(out / "data.jsonl"),
                     "--out", str(out)]) == 0
        result = json.loads((out / "identify_result.json").read_text())
        alpha = np.array(result["alpha_hat"])
        # single run at tau=400: comfortably inside 5 sample stds (scaled from
        # the tau=1000 variances 0.048 / 0.015)
        bound = 5.0 * np.sqrt(np.array([0.048, 0.015]) * 1000.0 / 400.0)
        assert np.all(np.abs(alpha - [2.0, 1.0]) < bound)
        assert result["L"] == 2
        assert result["identifiability"]["rank"] == 2
        assert result["cov"] is None
        assert result["tolerances"] == {"rank_tol": 1e-10}
        assert np.array_equal(np.array(result["Q_hat"]), [[alpha[0]]])
        out_txt = capsys.readouterr().out
        assert "alpha_1" in out_txt

    def test_weighted_identify_writes_cov(self, tmp_path, obs_ltv_model_file):
        out = tmp_path / "o"
        main(["simulate", "--model", str(obs_ltv_model_file), "--out", str(out)])
        assert main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(out / "data.jsonl"), "--method", "weighted",
                     "--out", str(out)]) == 0
        result = json.loads((out / "identify_result.json").read_text())
        assert result["method"] == "weighted-full-rank"
        cov = np.array(result["cov"])
        assert cov.shape == (2, 2)
        assert np.all(np.diag(cov) > 0)

    def test_weighted_identify_names_the_kept_row_branch(self, tmp_path, capsys,
                                                         unknown_input_model_file):
        """The unobs weight is solved on its kept rows, and the method says
        so in the result file and the printed summary."""
        out = tmp_path / "o"
        main(["simulate", "--model", str(unknown_input_model_file), "--out", str(out)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["identify", "--model", str(unknown_input_model_file),
                         "--data", str(out / "data.jsonl"), "--method", "weighted",
                         "--input-mode", "unknown", "--out", str(out)]) == 0
        result = json.loads((out / "identify_result.json").read_text())
        assert result["method"] == "weighted-kept-row"
        assert "method: weighted-kept-row " in capsys.readouterr().out

    def test_unknown_input_mode_without_u(self, tmp_path, unknown_input_model_file):
        out = tmp_path / "o"
        main(["simulate", "--model", str(unknown_input_model_file),
              "--out", str(out)])
        # strip the u fields entirely
        lines = (out / "data.jsonl").read_text().splitlines()
        stripped = []
        for line in lines:
            rec = json.loads(line)
            rec.pop("u", None)
            stripped.append(json.dumps(rec))
        (out / "no_u.jsonl").write_text("\n".join(stripped) + "\n")
        assert main(["identify", "--model", str(unknown_input_model_file),
                     "--data", str(out / "no_u.jsonl"),
                     "--input-mode", "unknown", "--out", str(out)]) == 0
        result = json.loads((out / "identify_result.json").read_text())
        alpha = np.array(result["alpha_hat"])
        assert np.all(np.abs(alpha - [1, 1, -1, 2, 2, 1]) < 5.0)

    def test_horizon_too_short(self, tmp_path, obs_ltv_model_file, capsys):
        data = tmp_path / "short.jsonl"
        data.write_text('{"k": 0, "z": [1.0]}\n')
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--L", "5", "--out", str(tmp_path)])
        assert code == 3
        assert "horizon too short" in capsys.readouterr().err

    def test_nonfinite_data_is_a_validation_error(self, tmp_path, obs_ltv_model_file,
                                                   capsys):
        data = tmp_path / "nan.jsonl"
        data.write_text("".join(f'{{"k": {k}, "z": [{"NaN" if k == 3 else 1.0}]}}\n'
                                for k in range(10)))
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 3
        assert "line 4: 'z' is not finite" in capsys.readouterr().err

    def test_record_without_z_is_a_validation_error(self, tmp_path,
                                                     obs_ltv_model_file, capsys):
        data = tmp_path / "noz.jsonl"
        data.write_text('{"k": 0, "u": [1.0]}\n')
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 3
        assert "line 1: expected a JSON object with a 'z' entry" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["z", "u"])
    @pytest.mark.parametrize("value, problem", [
        (["a"], "must be a flat list of numbers"),
        ({"x": 1}, "must be a flat list of numbers"),
        ([[1.0, 2.0], [3.0]], "must be a flat list of numbers"),
        ([10 ** 400], "is not finite"),             # beyond the largest float
    ])
    def test_malformed_data_record_is_a_validation_error(self, tmp_path,
                                                         obs_ltv_model_file, capsys,
                                                         key, value, problem):
        data = tmp_path / "bad.jsonl"
        data.write_text("".join(
            json.dumps({"k": k, "z": [1.0], "u": [0.0],
                        **({key: value} if k == 3 else {})}) + "\n"
            for k in range(10)))
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 3
        assert f"line 4: '{key}' {problem}" in capsys.readouterr().err

    def test_number_of_too_many_digits_in_data_names_the_line(
            self, tmp_path, obs_ltv_model_file, capsys):
        """An integer of more digits than Python converts exits 3 naming its
        line, as a number beyond the largest float does."""
        long_int = "9" * (sys.get_int_max_str_digits() + 700)
        data = tmp_path / "long.jsonl"
        data.write_text("".join(
            (f'{{"k": 3, "z": [{long_int}], "u": [0.0]}}' if k == 3
             else json.dumps({"k": k, "z": [1.0], "u": [0.0]})) + "\n"
            for k in range(10)))
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: line 4: a number has more than {sys.get_int_max_str_digits()} "
            "digits\n")

    @pytest.mark.parametrize("which", ["model", "data"])
    def test_file_that_is_not_utf8_is_an_io_error(self, tmp_path, obs_ltv_model_file,
                                                 capsys, which):
        """A model or data file with a byte that is not UTF-8 exits 5 with
        one error line that names the file, as a file that is not JSON
        exits 5."""
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"k": k, "z": [1.0], "u": [0.0]}) + "\n"
                                for k in range(10)))
        bad = {"model": obs_ltv_model_file, "data": data}[which]
        text = bad.read_bytes()
        bad.write_bytes(text[:20] + b"\xff" + text[20:])
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 20: "
                       f"invalid start byte in {bad}\n")

    SCALAR_MODEL = {
        "n_x": 1, "n_w": 1, "n_v": 1, "tau": 5, "F": [[0.9]], "G": [[1.0]],
        "E": [[1.0]], "H": [[1.0]], "D": [[1.0]],
        "basis": [{"BQ": [[1.0]], "BR": [[0.0]]}, {"BQ": [[0.0]], "BR": [[1.0]]}],
        "alpha_true": [2.0, 1.0], "init": {"mean": [1.0], "cov": [[1.0]]},
    }

    @pytest.mark.parametrize("key, value, named", [
        ("F", [[0.9, 0.1], [0.2]], "'F'"),
        ("F", [["a"]], "'F'"),
        ("tau", "abc", "'tau'"),
        ("n_x", "x", "'n_x'"),
        ("basis", 5, "'basis'"),
        ("basis", [{"BQ": [[1.0, 0.0], [1.0]], "BR": [[0.0]]},
                   {"BQ": [[0.0]], "BR": [[1.0]]}], "'basis[0].BQ'"),
        ("init", {"mean": [1.0]}, "'init'"),
        ("tau", 5.5, "'tau'"),
        ("tau", True, "'tau'"),
        ("tau", "7", "'tau'"),
        ("n_x", 1.9, "'n_x'"),
        ("tau", float("inf"), "'tau'"),             # JSON's 1e999 reads as inf too
        ("D", [[10 ** 400]], "'D'"),                # beyond the largest float
        ("basis", [{"BQ": [[1.0]]}, {"BQ": [[0.0]], "BR": [[1.0]]}],
         "basis entry 0 needs both 'BQ' and 'BR'"),
        ("tau", -1, "'tau' must be nonnegative, got -1"),
        ("n_x", -1, "'n_x' must be nonnegative, got -1"),
        ("n_w", -3, "'n_w' must be nonnegative, got -3"),
        ("n_v", -2, "'n_v' must be nonnegative, got -2"),
    ])
    def test_malformed_model_file_is_a_validation_error(self, tmp_path, capsys,
                                                        key, value, named):
        """A ragged or non-numeric matrix, a size that is not a JSON integer,
        a number beyond the largest float, a basis that is not an array of
        pairs and an init without cov exit 3 naming the key, instead of a
        traceback."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**self.SCALAR_MODEL, key: value}))
        code = main(["simulate", "--model", str(model), "--out", str(tmp_path)])
        assert code == 3
        assert named in capsys.readouterr().err

    def test_model_file_that_is_not_json_is_an_io_error(self, tmp_path, capsys):
        """The decoder's error reaches ``main``, which exits 5 with its message."""
        model = tmp_path / "model.json"
        model.write_text("not json\n")
        code = main(["simulate", "--model", str(model), "--out", str(tmp_path / "o")])
        assert code == 5
        assert capsys.readouterr().err == "error: Expecting value: line 1 column 1 (char 0)\n"
        assert not (tmp_path / "o").exists()

    def test_number_of_too_many_digits_in_a_model_names_the_file(self, tmp_path,
                                                                 capsys):
        """An integer of more digits than Python converts exits 3 naming the
        model file, as a malformed key does."""
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**self.SCALAR_MODEL, "alpha_true": [2.0, "LONG"]})
                         .replace('"LONG"', "1" * (sys.get_int_max_str_digits() + 700)))
        code = main(["simulate", "--model", str(model), "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {model}: a number has more than {sys.get_int_max_str_digits()} "
            "digits\n")

    @pytest.mark.parametrize("where", ["data", "model"])
    def test_value_nested_too_deeply_names_its_line_or_file(self, tmp_path, capsys, where):
        """A value nested too deeply (z on line 4 of a data file, a model's
        alpha_true) exits 3 naming the line or the file, as too many digits do."""
        model, data = tmp_path / "model.json", tmp_path / "data.jsonl"
        records = [{"k": k, "z": [1.0], "u": [0.0]} for k in range(21)]
        spec = {**self.SCALAR_MODEL, "tau": 20}
        if where == "data":
            records[3]["z"] = TOO_DEEP
        else:
            spec["alpha_true"] = TOO_DEEP
        for path, text in ((model, json.dumps(spec)),
                           (data, "".join(json.dumps(r) + "\n" for r in records))):
            path.write_text(text.replace(json.dumps(TOO_DEEP), DEEP))
        code = main(["identify", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {'line 4' if where == 'data' else model}: a value is nested "
            "too deeply to decode\n")

    @pytest.mark.parametrize("window", ["2", "auto"])
    @pytest.mark.parametrize("tau", [2, 3, 5, 10])
    def test_data_past_the_model_horizon_is_a_validation_error(self, tmp_path, capsys,
                                                              tau, window):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**self.SCALAR_MODEL, "tau": tau}))
        data = tmp_path / "data.jsonl"
        data.write_text("".join(json.dumps({"k": k, "z": [1.0], "u": [0.0]}) + "\n"
                                for k in range(21)))
        code = main(["identify", "--model", str(model), "--data", str(data),
                     "--L", window, "--out", str(tmp_path)])
        assert code == 3
        assert (f"error: data has 21 records but the model horizon is tau={tau}\n"
                == capsys.readouterr().err)

    def test_steps_without_a_measurement_go_through_a_model_file(self, tmp_path):
        """H_k and D_k without rows (every 7th step) are saved as [] and read
        back as (0, n_x) and (0, n_v): the model simulates and identifies."""
        tau = 40
        no_z = [k % 7 == 0 for k in range(tau + 1)]
        model = LtvModel.create(
            n_x=1, n_w=1, n_v=1, tau=tau, E=[[1.0]], G=[[1.0]],
            F=[[[0.9 + 0.05 * np.sin(k)]] for k in range(tau + 1)],
            H=[np.ones((1 - gap, 1)) for gap in no_z],
            D=[np.ones((1 - gap, 1)) for gap in no_z])
        structure = NoiseStructure.from_pairs([([[1.0]], [[0.0]]), ([[0.0]], [[1.0]])])
        path = tmp_path / "model.json"
        io.save_model(path, model, structure, alpha_true=[2.0, 1.0])
        assert main(["simulate", "--model", str(path), "--out", str(tmp_path)]) == 0
        assert main(["identify", "--model", str(path), "--L", "auto",
                     "--data", str(tmp_path / "data.jsonl"), "--out", str(tmp_path)]) == 0

    def test_indefinite_weight_message(self, tmp_path, capsys, monkeypatch):
        # the weight (of the design's kept rows, the rows it is solved on)
        # has a -1 diagonal entry, so it is indefinite whatever the data; the
        # message form is the one scripts match
        def indefinite_pipeline(sys_full):
            bad = np.ones((1, sys_full.weight_band_shape[1]))
            bad[0, 0] = -1.0
            return weighted_mdm(sys_full, bad)

        monkeypatch.setattr(cli, "weighted_pipeline", indefinite_pipeline)
        spec = preset("unobs-unknown-input", tau=100)
        model = tmp_path / "model.json"
        io.save_model(model, spec.model, spec.structure,
                      alpha_true=spec.alpha_true, init=spec.init)
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(model), "--seed", "0",
                     "--out", str(out)]) == 0
        code = main(["identify", "--model", str(model),
                     "--data", str(out / "data.jsonl"), "--method", "weighted",
                     "--input-mode", "unknown", "--out", str(out)])
        assert code == 4
        assert re.search(r"^error: weight matrix has eigenvalue -\S+ below -\S+$",
                         capsys.readouterr().err, re.MULTILINE)

    def test_simulate_reproducible_bytes(self, tmp_path, obs_ltv_model_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--model", str(obs_ltv_model_file), "--seed", "9",
              "--out", str(out1)])
        main(["simulate", "--model", str(obs_ltv_model_file), "--seed", "9",
              "--out", str(out2)])
        assert (out1 / "data.jsonl").read_bytes() == (out2 / "data.jsonl").read_bytes()

    def test_simulate_tau_zero_writes_one_record(self, tmp_path, obs_ltv_model_file):
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(obs_ltv_model_file), "--tau", "0",
                     "--out", str(out)]) == 0
        assert len((out / "data.jsonl").read_text().splitlines()) == 1
        assert json.loads((out / "data.meta.json").read_text())["tau"] == 0

    def test_simulate_tau_beyond_the_horizon_is_a_validation_error(
            self, tmp_path, capsys, obs_ltv_model_file):
        assert main(["simulate", "--model", str(obs_ltv_model_file), "--tau", "401",
                     "--out", str(tmp_path / "o")]) == 3
        assert ("requested tau=401 exceeds the model horizon 400"
                in capsys.readouterr().err)

    def test_simulate_tau_at_the_horizon_is_the_whole_model(self, tmp_path,
                                                          obs_ltv_model_file):
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert main(["simulate", "--model", str(obs_ltv_model_file), "--seed", "5",
                     "--out", str(full)]) == 0
        assert main(["simulate", "--model", str(obs_ltv_model_file), "--seed", "5",
                     "--tau", "400", "--out", str(cut)]) == 0
        assert (cut / "data.jsonl").read_bytes() == (full / "data.jsonl").read_bytes()

    @pytest.mark.parametrize("model", ["obs_ltv_model_file", "unknown_input_model_file"])
    def test_simulate_negative_tau_names_the_flag(self, tmp_path, capsys, request,
                                                  model):
        path = request.getfixturevalue(model)
        assert main(["simulate", "--model", str(path), "--tau=-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "argument --tau: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_simulate_zero_input_writes_zero_u_records(self, tmp_path,
                                                       obs_ltv_model_file):
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(obs_ltv_model_file), "--tau", "20",
                     "--input-signal", "zero", "--out", str(out)]) == 0
        data = io.read_data(out / "data.jsonl")
        assert np.array_equal(data.n_u, np.ones(21, dtype=int))
        assert np.array_equal(data.u, np.zeros(21))

    def test_simulate_sine_input_needs_a_scalar_input(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**self.SCALAR_MODEL, "G": [[1.0, 1.0]]}))
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(model), "--input-signal", "sine",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: the sine input signal needs a scalar input; use --input-signal "
            "zero or none\n")
        assert not out.exists()

    def test_simulate_requires_alpha_true(self, tmp_path):
        spec = preset("obs-ltv", tau=50)
        path = tmp_path / "model.json"
        io.save_model(path, spec.model, spec.structure)  # no alpha_true
        assert main(["simulate", "--model", str(path),
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("field, value, finding", [
        ("alpha_true", [float("nan"), 1.0], "alpha_true contains non-finite entries"),
        ("init", {"mean": [float("inf")], "cov": [[1.0]]},
         "init.mean contains non-finite entries"),
        ("init", {"mean": [1.0], "cov": [[float("nan")]]},
         "init.cov contains non-finite entries"),
        ("init", {"mean": [1.0, 2.0], "cov": [[1.0]]},
         "init.mean has shape (2,), expected (1,)"),
        ("init", {"mean": [1.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
         "init.cov has shape (2, 2), expected (1, 1)"),
    ])
    def test_simulate_rejects_bad_alpha_or_init(self, tmp_path, capsys,
                                                obs_ltv_model_file, field, value,
                                                finding):
        """A non-finite or wrongly shaped alpha_true / init in the model file
        is a validation error (exit 3) naming it; no data file is written."""
        raw = json.loads(obs_ltv_model_file.read_text())
        raw[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {finding}\n"
        assert not (out / "data.jsonl").exists()

    def test_simulate_and_ordinary_identify_load_no_scipy(self, tmp_path,
                                                          unknown_input_model_file):
        """SciPy is loaded by a weighted solve alone, and multiprocessing by
        a ``run_mc`` of two or more chunks alone: a fresh interpreter that
        imports mdmest, simulates and identifies by the ordinary method has
        imported neither."""
        model, out = str(unknown_input_model_file), str(tmp_path / "o")
        code = (
            "import sys, mdmest\n"
            "from mdmest.cli import main\n"
            f"assert main(['simulate', '--model', {model!r}, '--out', {out!r}]) == 0\n"
            f"assert main(['identify', '--model', {model!r}, '--data', "
            f"{out + '/data.jsonl'!r}, '--method', 'ordinary', '--input-mode', "
            f"'unknown', '--out', {out!r}]) == 0\n"
            "sys.stderr.write(str(sorted(m for m in sys.modules\n"
            "                            if m.split('.')[0] in ('scipy', 'multiprocessing'))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "[]")


class TestLogLevel:
    @pytest.fixture(autouse=True)
    def restore_level(self):
        logger = logging.getLogger("mdmest")
        level = logger.level
        yield
        logger.setLevel(level)

    def test_info_and_debug_records_only_when_asked(self, tmp_path, caplog,
                                                    obs_ltv_model_file):
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(obs_ltv_model_file),
                     "--out", str(out)]) == 0
        argv = ["identify", "--model", str(obs_ltv_model_file), "--data",
                str(out / "data.jsonl"), "--method", "weighted", "--out", str(out)]
        seen = {}
        for level in ("WARNING", "INFO", "DEBUG", None):
            caplog.clear()
            flag = [] if level is None else ["--log-level", level]
            assert main(flag + argv) == 0
            seen[level] = {(r.levelname, r.getMessage().split(":")[0])
                           for r in caplog.records if r.name.startswith("mdmest")}
        assert seen[None] == seen["WARNING"] == set()
        # --L auto passes over L = 1, whose Upsilon has a zero Q column
        assert seen["INFO"] == {("INFO", "L=1 passed over"), ("INFO", "identify"),
                                ("INFO", "weighted solve")}
        assert seen["DEBUG"] == seen["INFO"] | {("DEBUG", "identify")}

    def test_unknown_level_is_a_usage_error(self, capsys):
        assert main(["--log-level", "LOUD", "identify"]) == 2
        assert "argument --log-level: invalid choice" in capsys.readouterr().err


class TestAutoWindow:
    @pytest.mark.parametrize("method", ["ordinary", "weighted"])
    def test_each_candidate_geometry_built_once(self, tmp_path, monkeypatch,
                                                obs_ltv_model_file, method):
        """--L auto skips L = 1 unbuilt (its Upsilon has a zero Q column),
        accepts L = 2 and identifies with the scan's design: no window
        length's geometry is built twice."""
        from mdmest import estimator
        built = []
        real = estimator.window_blocks

        def counting(model, ks, L):
            built.append(L)
            return real(model, ks, L)

        out = tmp_path / "o"
        assert main(["simulate", "--model", str(obs_ltv_model_file),
                     "--out", str(out)]) == 0
        monkeypatch.setattr(estimator, "window_blocks", counting)
        assert main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(out / "data.jsonl"), "--method", method,
                     "--out", str(out)]) == 0
        assert built == [2]
        assert json.loads((out / "identify_result.json").read_text())["L"] == 2

    def test_rank_deficient_scan_builds_each_length_once(self, tmp_path, monkeypatch,
                                                         capsys, ge_equal_model,
                                                         ge_equal_structure):
        """No L gives the G == E model full rank in unknown-input mode; the
        report is on the highest-rank design the scan built, L = 2 (rank 1
        at every L from 2 to 12, the smallest kept), not built again."""
        from mdmest import estimator, min_feasible_window
        from mdmest.model import UNKNOWN_INPUT
        built = []
        real = estimator.window_blocks

        def counting(model, ks, L):
            built.append(L)
            return real(model, ks, L)

        path = tmp_path / "ge.json"
        io.save_model(path, ge_equal_model, ge_equal_structure)
        monkeypatch.setattr(estimator, "window_blocks", counting)
        assert main(["identifiability", "--model", str(path),
                     "--input-mode", "unknown"]) == 0
        assert "L=2, rank 1 of 2" in capsys.readouterr().out
        assert sorted(built) == sorted(set(built))
        assert 2 in built
        monkeypatch.setattr(estimator, "window_blocks", real)
        assert min_feasible_window(ge_equal_model, UNKNOWN_INPUT) == 2


class TestBenchmarkCommand:
    def test_writes_three_files(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["benchmark", "obs-ltv", "--n-mc", "4", "--tau", "150",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        for name in ("obs-ltv_ordinary_table.txt", "obs-ltv_ordinary_table.csv",
                     "obs-ltv_ordinary_runs.csv"):
            assert (out / name).exists()
        assert "alpha_1" in capsys.readouterr().out

    @pytest.mark.parametrize("n_mc", ["0", "-2"])
    def test_run_count_below_one_names_the_flag(self, tmp_path, capsys, n_mc):
        assert main(["benchmark", "obs-ltv", f"--n-mc={n_mc}", "--tau", "50",
                     "--out", str(tmp_path / "b")]) == 2
        assert (f"argument --n-mc: must be at least 1, got {n_mc}"
                in capsys.readouterr().err)
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_worker_count_below_one_names_the_flag(self, tmp_path, capsys, workers):
        assert main(["benchmark", "obs-ltv", f"--workers={workers}", "--tau", "50",
                     "--out", str(tmp_path / "b")]) == 2
        assert (f"argument --workers: must be at least 1, got {workers}"
                in capsys.readouterr().err)
        assert not (tmp_path / "b").exists()

    def test_unknown_preset_usage_error(self, tmp_path):
        assert main(["benchmark", "not-a-preset", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_tolerances_reach_the_runs(self, tmp_path, capsys, workers):
        """--rank-tol is the rank rule of every run, in one process or two:
        at 0.9 the obs-ltv design (tau=60, where H_k varies; at tau=50 it is
        1 at every integer k) has rank 0, and the default still writes its
        table."""
        args = ["benchmark", "obs-ltv", "--tau", "60", "--n-mc", "3", "--workers", workers]
        assert main(args + ["--rank-tol", "0.9", "--out", str(tmp_path / "a")]) == \
            cli.EXIT_NUMERICAL
        assert "design matrix rank 0 < 2" in capsys.readouterr().err
        assert main(args + ["--out", str(tmp_path / "b")]) == cli.EXIT_OK
        assert (tmp_path / "b" / "obs-ltv_ordinary_table.csv").exists()


class TestIdentifiabilityCommand:
    def test_full_rank_report(self, tmp_path, obs_ltv_model_file, capsys):
        assert main(["identifiability", "--model", str(obs_ltv_model_file)]) == 0
        out = capsys.readouterr().out
        assert "rank 2 of 2" in out

    def test_rank_deficient_report(self, tmp_path, capsys, ge_equal_model,
                                   ge_equal_structure):
        path = tmp_path / "ge.json"
        io.save_model(path, ge_equal_model, ge_equal_structure)
        assert main(["identifiability", "--model", str(path),
                     "--input-mode", "unknown"]) == 0
        out = capsys.readouterr().out
        assert "rank 1 of 2" in out
        assert "unidentifiable directions" in out

    def test_auto_window_is_the_identify_window(self, tmp_path, capsys,
                                                unknown_input_model_file):
        """--L auto reports on the window identify uses (L=2 here), not on
        the smallest window with an annihilator (L=1, rank 1 of 6)."""
        assert main(["identifiability", "--model", str(unknown_input_model_file),
                     "--input-mode", "unknown"]) == 0
        assert "identifiability: L=2, rank 6 of 6 parameters" in capsys.readouterr().out

    def test_report_names_an_explicit_window(self, capsys, obs_ltv_model_file):
        assert main(["identifiability", "--model", str(obs_ltv_model_file),
                     "--L", "3"]) == 0
        assert capsys.readouterr().out.startswith(
            "identifiability: L=3, rank 2 of 2 parameters (threshold ")

    RANK_DEFICIENT_REPORT = (
        "identifiability: L=2, rank 3 of 6 parameters (threshold 4.720e-01)\n"
        "unidentifiable directions (orthonormal basis columns):\n"
        "  [-4.8337e-01   1.3121e-01  -7.4557e-02]  participation 0.506\n"
        "  [ 5.0896e-01  -7.4236e-01  -6.0924e-02]  participation 0.902\n"
        "  [-2.9056e-01  -5.4478e-02  -2.1354e-02]  participation 0.296\n"
        "  [ 6.1399e-01   6.2541e-01  -2.2636e-01]  participation 0.905\n"
        "  [-5.1403e-02  -5.9519e-02   5.9855e-01]  participation 0.604\n"
        "  [-2.0800e-01  -1.8448e-01  -7.6208e-01]  participation 0.811\n")

    def test_rank_deficient_auto_window_keeps_the_highest_rank(self, tmp_path, capsys):
        """With --rank-tol 1e-3 no L gives unobs at tau=40 full rank; --L auto
        reports on L = 2 (rank 3 of 6), not on L = 1 (rank 1 of 6): the
        rank line, then a row of the null basis and its participation per
        parameter, and nothing on stderr.  identify exits 4 after the same
        report."""
        spec = preset("unobs-unknown-input", tau=40)
        model = tmp_path / "unobs.json"
        io.save_model(model, spec.model, spec.structure,
                      alpha_true=spec.alpha_true, init=spec.init)
        assert main(["identifiability", "--model", str(model), "--input-mode",
                     "unknown", "--rank-tol", "1e-3"]) == 0
        assert capsys.readouterr() == (self.RANK_DEFICIENT_REPORT, "")
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(model), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["identify", "--model", str(model), "--data",
                     str(out / "data.jsonl"), "--L", "auto", "--method", "weighted",
                     "--input-mode", "unknown", "--rank-tol", "1e-3",
                     "--out", str(out)]) == cli.EXIT_NUMERICAL
        assert self.RANK_DEFICIENT_REPORT in capsys.readouterr().out
        assert not (out / "identify_result.json").exists()


class TestExitCodes:
    @pytest.mark.parametrize("flag, value, command", [
        (flag, value, command) for command in ("identify", "identifiability")
        for flag, value in [("--rank-tol", "-1"), ("--rank-tol", "nan"),
                            ("--rank-tol", "inf"), ("--rank-tol", "-inf")]])
    def test_bad_tolerance_names_the_flag(self, tmp_path, capsys, obs_ltv_model_file,
                                          command, flag, value):
        argv = [command, "--model", str(obs_ltv_model_file), f"{flag}={value}"]
        if command == "identify":
            argv += ["--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert (f"argument {flag}: must be finite and nonnegative, got {value}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["identify", "identifiability"])
    @pytest.mark.parametrize("value, message", [
        ("0", "must be at least 1, got 0"), ("-1", "must be at least 1, got -1"),
        ("abc", "invalid window length value: 'abc'"),
        ("2.5", "invalid window length value: '2.5'"),
    ])
    def test_bad_window_length_names_the_flag(self, tmp_path, capsys,
                                              obs_ltv_model_file, command, value,
                                              message):
        """--L takes 'auto' or an integer of at least 1; anything else is a
        usage error naming the flag, not a traceback."""
        argv = [command, "--model", str(obs_ltv_model_file), f"--L={value}"]
        if command == "identify":
            argv += ["--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"argument --L: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--rank-tol", "0.5"), ("simulate", "--zero-tol", "3"),
        ("identifiability", "--zero-tol", "5"), ("identifiability", "--out", None),
        ("identify", "--zero-tol", "1e-8"), ("benchmark", "--zero-tol", "1e-8")])
    def test_flag_the_command_does_not_read_is_refused(self, tmp_path, capsys,
                                                       obs_ltv_model_file, command,
                                                       flag, value):
        """A command takes only the flags it reads: one it would ignore is a
        usage error, and no output is written."""
        value = value or str(tmp_path / "o")
        model, out = ["--model", str(obs_ltv_model_file)], ["--out", str(tmp_path / "o")]
        argv = {"identify": model + ["--data", str(tmp_path / "nope.jsonl")] + out,
                "benchmark": ["obs-ltv", "--tau", "50", "--n-mc", "1"] + out,
                "simulate": model + out, "identifiability": model}[command]
        assert main([command] + argv + [flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_rank_deficient_identify_prints_report(self, tmp_path, capsys,
                                                   ge_equal_model,
                                                   ge_equal_structure):
        path = tmp_path / "ge.json"
        io.save_model(path, ge_equal_model, ge_equal_structure,
                      alpha_true=[1.0, 0.5])
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(path), "--out", str(out)]) == 0
        code = main(["identify", "--model", str(path),
                     "--data", str(out / "data.jsonl"),
                     "--input-mode", "unknown", "--out", str(out)])
        assert code == 4
        captured = capsys.readouterr()
        assert "rank 1 of 2" in captured.out
        assert not (out / "identify_result.json").exists()

    def test_too_short_window_names_smallest_feasible(self, tmp_path, capsys,
                                                      obs_ltv_model_file):
        out = tmp_path / "o"
        assert main(["simulate", "--model", str(obs_ltv_model_file),
                     "--out", str(out)]) == 0
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(out / "data.jsonl"), "--L", "1",
                     "--out", str(out)])
        assert code == 4
        assert "smallest feasible window length is L=2" in capsys.readouterr().err

    def test_too_short_window_hint_is_for_the_data_records(self, tmp_path, capsys):
        """On its first five records the model has an annihilator at L = 2;
        over its whole horizon only at L = 3."""
        model_path, data = tmp_path / "switch.json", tmp_path / "five.jsonl"
        io.save_model(model_path, make_switching_h_model(), make_switching_h_structure())
        data.write_text("".join(f'{{"k": {k}, "z": [1.0]}}\n' for k in range(5)))
        code = main(["identify", "--model", str(model_path), "--data", str(data),
                     "--L", "1", "--out", str(tmp_path)])
        assert code == 4
        assert "smallest feasible window length is L=2" in capsys.readouterr().err

    def test_auto_window_without_annihilator(self, tmp_path, capsys,
                                             obs_ltv_model_file):
        data = tmp_path / "one.jsonl"
        data.write_text('{"k": 0, "z": [1.0]}\n')
        code = main(["identify", "--model", str(obs_ltv_model_file),
                     "--data", str(data), "--out", str(tmp_path)])
        assert code == 4
        assert ("no window length up to L=1 has an annihilator for 1 records"
                in capsys.readouterr().err)

    def test_missing_model_file(self, tmp_path):
        assert main(["identify", "--model", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path)]) == 5

    def test_usage_error(self):
        assert main(["identify"]) == 2

    def test_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_x": 1}')
        assert main(["identify", "--model", str(bad),
                     "--data", str(bad), "--out", str(tmp_path)]) == 3


# constant matrices, so that any tau reads; --L auto takes L = 3, and
# --L 2 is rank deficient unless F is mutated to a time-varying sequence
MUTANT_MODEL = {**TestSimulateIdentify.SCALAR_MODEL, "tau": 20}
MUTANT_RECORDS = [{"k": k, "z": [np.sin(k) + 0.1 * k], "u": [0.0]} for k in range(21)]
DELETE = object()
NAN, INF = float("nan"), float("inf")
# tau - 1 .. tau + 2 matrices, changing with k
STEPS = [[[[0.9 - 0.02 * k]] for k in range(n)] for n in (19, 20, 21, 22)]
# a JSON value nested deeper than Python decodes, which json.dumps does not
# write: mutated files hold the string TOO_DEEP in its place until written
DEEP, TOO_DEEP = "[" * 100_000 + "]" * 100_000, "too deep"
# the values a model key may be mutated to: any key may be missing, null, of
# a wrong type or nested too deeply; sizes, matrices and the rest each have
# their own.  Sizes stay small: a huge tau is valid and allocates every step
COMMON_VALUES = [DELETE, None, True, "abc", 1.5, {}, [], TOO_DEEP]
SIZE_VALUES = [-1, 0, 1, 2, 3, 5, 10, 19, 20, 21, 22]
MATRIX_VALUES = [[[]], [[0.9]], [[1.0, 2.0]], [[1.0], [1.0, 2.0]], [[NAN]], [[INF]],
                 [[10 ** 400]], [[[0.9]]], *STEPS]
MODEL_VALUES = {
    **dict.fromkeys(["n_x", "n_w", "n_v", "tau"], SIZE_VALUES),
    **dict.fromkeys(["F", "G", "E", "H", "D"], MATRIX_VALUES),
    "basis": [[{"BQ": [[1.0]]}], [{"BQ": [[1.0]], "BR": [[1.0]]}],
              [{"BQ": [[1.0, 0.0], [0.0, 1.0]], "BR": [[0.0]]},
               {"BQ": [[0.0]], "BR": [[1.0]]}],
              [{"BQ": [[NAN]], "BR": [[0.0]]}, {"BQ": [[0.0]], "BR": [[1.0]]}]],
    "alpha_true": [[2.0], [2.0, 1.0, 3.0], [NAN, 1.0], [-2.0, 1.0]],
    "init": [{"mean": [1.0]}, {"mean": [1.0, 2.0], "cov": [[1.0]]},
             {"mean": [1.0], "cov": [[-1.0]]}, {"mean": [INF], "cov": [[1.0]]}],
}
RECORD_VALUE = st.sampled_from([
    DELETE, None, "a", 1.0, [], [1.0, 2.0], [NAN], [INF], [[1.0]],
    [True], [10 ** 400], -1, 0, 20, 21, 1.0e300, TOO_DEEP])


@st.composite
def malformed_files(draw):
    """A valid scalar model file (tau = 20) and its 21-record data file, with
    one key of the model or one record of the data mutated; the model file
    is always JSON, a data line may not be."""
    model, records = dict(MUTANT_MODEL), [dict(r) for r in MUTANT_RECORDS]
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(model)))
        value = draw(st.sampled_from(COMMON_VALUES + MODEL_VALUES[key]))
        if value is DELETE:
            del model[key]
        else:
            model[key] = value
        return model, [json.dumps(r) for r in records]
    k = draw(st.integers(0, 21))
    kind = draw(st.sampled_from(["value", "drop", "extra", "not json"]))
    lines = [json.dumps(r) for r in records]
    if kind == "value" and k < 21:
        key, value = draw(st.sampled_from(["k", "z", "u"])), draw(RECORD_VALUE)
        if value is DELETE:
            del records[k][key]
        else:
            records[k][key] = value
        lines[k] = json.dumps(records[k])
    elif kind == "drop" and k < 21:
        del lines[k]
    elif kind == "extra":
        lines.insert(k, json.dumps({"k": k, "z": [1.0], "u": [0.0]}))
    elif kind == "not json":
        lines.insert(k, draw(st.sampled_from(['{"k": 1, "z": [1.0', "x", "{} {}"])))
    return model, lines


def is_json(lines) -> bool:
    try:
        for line in lines:
            json.loads(line)
    except json.JSONDecodeError:
        return False
    return True


@pytest.mark.bitwise
@given(malformed_files())
@example(({**MUTANT_MODEL, "tau": 3}, [json.dumps(r) for r in MUTANT_RECORDS]))
@example(({**MUTANT_MODEL, "tau": -1}, [json.dumps(r) for r in MUTANT_RECORDS]))
def test_malformed_input_never_escapes(files):
    """Whatever one key of a model file or one record of a data file holds,
    ``simulate``, ``identify`` (ordinary and weighted, --L auto and 2) and
    ``identifiability`` return 0, 3 or 4 (5 only for a data file that is not
    JSON), raise nothing, and any exit but 0 prints one "error: " line."""
    model, lines = files
    commands = [["simulate", "--seed", "1"]] + [
        ["identify", "--data", "DATA", "--method", method, "--L", window]
        for method in ("ordinary", "weighted") for window in ("auto", "2")] + [
        ["identifiability", "--L", window] for window in ("auto", "2")]
    with tempfile.TemporaryDirectory() as tmp:
        model_path, data_path = Path(tmp) / "model.json", Path(tmp) / "data.jsonl"
        for path, text in ((model_path, json.dumps(model)),
                           (data_path, "\n".join(lines) + "\n")):
            path.write_text(text.replace(json.dumps(TOO_DEEP), DEEP))
        for command in commands:
            argv = [str(data_path) if a == "DATA" else a for a in command]
            argv += ["--model", str(model_path)]
            argv += [] if command[0] == "identifiability" else [
                "--out", str(Path(tmp) / command[0])]
            err = io_.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(io_.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main(argv)
            event(f"{argv[0]} exit {code}")
            allowed = {0, 3, 4} | ({5} if command[0] == "identify" and not is_json(lines)
                                   else set())
            assert code in allowed, (argv[0], code, err.getvalue())
            errors = [line for line in err.getvalue().splitlines()
                      if line.startswith("error: ")]
            assert len(errors) == (code != 0), (argv[0], code, err.getvalue())
