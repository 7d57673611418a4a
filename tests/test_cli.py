import json
import logging
import re

import numpy as np
import pytest

from mdmest import preset, weighted_mdm
from mdmest import cli, io
from mdmest.cli import main


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

    def test_indefinite_weight_message(self, tmp_path, capsys, monkeypatch):
        # the weight has a -1 diagonal entry, so it is indefinite whatever the
        # data; the message form is the one scripts match
        def indefinite_pipeline(sys_full, structure, tol):
            bad = np.ones((1, sys_full.n_rows))
            bad[0, 0] = -1.0
            return weighted_mdm(sys_full, bad, tol)

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

    @pytest.mark.parametrize("model", ["obs_ltv_model_file", "unknown_input_model_file"])
    def test_simulate_negative_tau_names_the_flag(self, tmp_path, capsys, request,
                                                  model):
        path = request.getfixturevalue(model)
        assert main(["simulate", "--model", str(path), "--tau=-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "argument --tau: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        assert seen["INFO"] == {("INFO", "identify"), ("INFO", "weighted solve")}
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
        report falls back to the smallest L with an annihilator (L = 2, as
        ``min_feasible_window`` finds) with the design the scan built."""
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
                     "--input-mode", "unknown", "--out", str(tmp_path)]) == 0
        assert "rank 1 of 2" in capsys.readouterr().out
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
        at 0.9 the obs-ltv design is rank deficient, and the default still
        writes its table."""
        args = ["benchmark", "obs-ltv", "--tau", "50", "--n-mc", "3", "--workers", workers]
        assert main(args + ["--rank-tol", "0.9", "--out", str(tmp_path / "a")]) == \
            cli.EXIT_NUMERICAL
        assert "design matrix rank" in capsys.readouterr().err
        assert main(args + ["--out", str(tmp_path / "b")]) == cli.EXIT_OK
        assert (tmp_path / "b" / "obs-ltv_ordinary_table.csv").exists()


class TestIdentifiabilityCommand:
    def test_full_rank_report(self, tmp_path, obs_ltv_model_file, capsys):
        assert main(["identifiability", "--model", str(obs_ltv_model_file),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rank 2 of 2" in out

    def test_rank_deficient_report(self, tmp_path, capsys, ge_equal_model,
                                   ge_equal_structure):
        path = tmp_path / "ge.json"
        io.save_model(path, ge_equal_model, ge_equal_structure)
        assert main(["identifiability", "--model", str(path),
                     "--input-mode", "unknown", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "rank 1 of 2" in out
        assert "unidentifiable directions" in out

    def test_auto_window_is_the_identify_window(self, tmp_path, capsys,
                                                unknown_input_model_file):
        """--L auto reports on the window identify uses (L=2 here), not on
        the smallest window with an annihilator (L=1, rank 1 of 6)."""
        assert main(["identifiability", "--model", str(unknown_input_model_file),
                     "--input-mode", "unknown", "--out", str(tmp_path)]) == 0
        assert "rank 6 of 6" in capsys.readouterr().out


class TestExitCodes:
    @pytest.mark.parametrize("command", ["identify", "identifiability"])
    @pytest.mark.parametrize("flag, value", [("--rank-tol", "-1"), ("--rank-tol", "nan"),
                                             ("--zero-tol", "nan"), ("--zero-tol", "inf"),
                                             ("--rank-tol", "-inf")])
    def test_bad_tolerance_names_the_flag(self, tmp_path, capsys, obs_ltv_model_file,
                                          command, flag, value):
        argv = [command, "--model", str(obs_ltv_model_file), f"{flag}={value}",
                "--out", str(tmp_path / "o")]
        if command == "identify":
            argv += ["--data", str(tmp_path / "nope.jsonl")]
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
        argv = [command, "--model", str(obs_ltv_model_file), f"--L={value}",
                "--out", str(tmp_path / "o")]
        if command == "identify":
            argv += ["--data", str(tmp_path / "nope.jsonl")]
        assert main(argv) == 2
        assert f"argument --L: {message}" in capsys.readouterr().err
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
