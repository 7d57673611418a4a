import csv
from dataclasses import replace

import numpy as np
import pytest

from mdmest import (
    KNOWN_INPUT,
    NO_INPUT,
    UNKNOWN_INPUT,
    build_stacked_system,
    emit_plot_data,
    emit_table,
    ordinary_mdm,
    preset,
    run_mc,
    simulate,
    weighted_pipeline,
)
from mdmest import benchmarks
from mdmest.benchmarks import benchmark_input_signal


class TestPresetFidelity:
    def test_clock_constants(self):
        spec = preset("clock-ensemble")
        ts = 10.0
        assert spec.L == 10 and spec.tau == 1000 and spec.mode == NO_INPUT
        assert np.array_equal(spec.model.F[0],
                              np.kron(np.eye(3), [[1.0, ts], [0.0, 1.0]]))
        assert np.array_equal(spec.model.G[0], np.zeros((6, 1)))
        assert np.array_equal(spec.model.E[0], np.eye(6))
        assert np.array_equal(spec.model.H[0],
                              [[1, 0, -1, 0, 0, 0], [1, 0, 0, 0, -1, 0]])
        assert np.array_equal(spec.model.D[0], np.eye(2))
        assert np.array_equal(
            spec.alpha_true,
            1e-19 * np.array([6.0, 0.05, 20.0, 0.3, 7.0, 0.04, 80.0, 100.0]))
        # alpha_true(7) in 1-based indexing
        assert spec.alpha_true[6] == 80e-19

        wiener = np.array([[ts ** 3 / 3, ts ** 2 / 2], [ts ** 2 / 2, ts]])
        white = np.array([[ts, 0.0], [0.0, 0.0]])
        q, r = np.zeros((6, 6)), np.zeros((2, 2))
        from mdmest import assemble_qr
        q, r = assemble_qr(spec.structure, spec.alpha_true)
        q_expected = 1e-19 * (np.kron(np.diag([6.0, 20.0, 7.0]), white)
                              + np.kron(np.diag([0.05, 0.3, 0.04]), wiener))
        assert np.allclose(q, q_expected, rtol=0, atol=1e-30)
        assert np.allclose(r, 1e-19 * np.diag([80.0, 100.0]), rtol=0, atol=1e-30)

    def test_unknown_input_constants(self):
        spec = preset("unobs-unknown-input")
        assert spec.L == 2 and spec.mode == UNKNOWN_INPUT
        assert np.array_equal(spec.model.F[0],
                              [[1, 2, 1], [0, -1.01, 2], [0, 0, 1]])
        assert np.array_equal(spec.model.E[0], [[-3, 2, 0], [2, 2, 2], [5, 0, 1]])
        assert np.array_equal(spec.model.H[0], [[0, 1, 0], [0, 0, 2], [0, 1, 1]])
        assert np.array_equal(spec.model.D[0], [[1, 1, 0], [0, 2, 1], [1, 0, -1]])
        assert np.array_equal(spec.alpha_true, [1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
        k = 137
        assert spec.model.G[k][1, 0] == np.sin(10.0 * k / spec.tau)
        # BQ(4..6) and BR(1..3) are zero
        assert all(np.all(spec.structure.bq[i] == 0) for i in (3, 4, 5))
        assert all(np.all(spec.structure.br[i] == 0) for i in (0, 1, 2))

    def test_obs_ltv_constants(self):
        spec = preset("obs-ltv")
        assert spec.L == 2 and spec.mode == KNOWN_INPUT
        assert np.array_equal(spec.alpha_true, [2.0, 1.0])
        for k in (0, 333, 1000):
            assert spec.model.F[k][0, 0] == 0.8 - 0.1 * np.sin(7 * np.pi * k / 1000)
            assert spec.model.H[k][0, 0] == 1 + 0.99 * np.sin(100 * np.pi * k / 1000)
        assert spec.model.G[0][0, 0] == 1.0
        assert spec.model.E[0][0, 0] == 1.0
        assert spec.model.D[0][0, 0] == 1.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("nope")

    def test_input_signal(self):
        spec = preset("obs-ltv", tau=100)
        u = benchmark_input_signal(spec)
        assert u.shape == (101, 1)
        assert u[7, 0] == np.sin(7.0 / 100.0)
        assert benchmark_input_signal(preset("clock-ensemble", tau=20)) is None


class TestRunMc:
    def test_reproducible(self):
        spec = preset("obs-ltv", tau=120, n_mc=6, seed=3)
        r1 = run_mc(spec, "ordinary")
        r2 = run_mc(spec, "ordinary")
        assert np.array_equal(r1.estimates, r2.estimates)
        assert np.array_equal(r1.sample_mean, r2.sample_mean)

    def test_zero_noise_variant(self):
        from mdmest import InitialCondition
        spec = preset("obs-ltv", tau=150, n_mc=4, seed=0)
        spec = replace(spec, alpha_true=np.zeros(2),
                       init=InitialCondition(mean=np.ones(1), cov=np.zeros((1, 1))))
        res = run_mc(spec, "ordinary")
        assert np.max(np.abs(res.estimates)) < 1e-8

    def test_matches_public_estimator(self):
        spec = preset("obs-ltv", tau=200, n_mc=1, seed=17)
        res = run_mc(spec, "ordinary")
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=17)
        sys_full = build_stacked_system(spec.model, spec.structure, traj, spec.L)
        est = ordinary_mdm(sys_full)
        assert np.array_equal(res.estimates[0], est.alpha_hat)

    @pytest.mark.parametrize("name, tau", [("obs-ltv", 200), ("unobs-unknown-input", 100)])
    def test_weighted_matches_public_pipeline(self, name, tau):
        """Each run's weighted estimate and covariance are, bit for bit,
        ``weighted_pipeline`` on ``build_stacked_system`` of its trajectory."""
        spec = preset(name, tau=tau, n_mc=5, seed=11)
        res = run_mc(spec, "weighted")
        mode = UNKNOWN_INPUT if spec.mode == UNKNOWN_INPUT else KNOWN_INPUT
        covs = []
        for i in range(spec.n_mc):
            traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                            input_signal=benchmark_input_signal(spec), seed=spec.seed + i)
            sys_full = build_stacked_system(spec.model, spec.structure, traj, spec.L,
                                            mode)
            est = weighted_pipeline(sys_full, spec.structure)
            assert np.array_equal(res.estimates[i], est.alpha_hat), i
            covs.append(np.diag(est.cov))
        assert np.array_equal(res.mean_est_cov_diag, np.array(covs).mean(axis=0))

    @pytest.mark.parametrize("n_mc", [0, -2])
    def test_run_count_below_one_is_rejected(self, n_mc):
        with pytest.raises(ValueError, match="n_mc must be at least 1"):
            run_mc(preset("obs-ltv", tau=50), "ordinary", n_mc=n_mc)

    def test_worker_pool_is_deterministic(self):
        spec = preset("obs-ltv", tau=100, n_mc=8, seed=5)
        serial = run_mc(spec, "ordinary", workers=1)
        parallel = run_mc(spec, "ordinary", workers=4)
        assert np.array_equal(serial.estimates, parallel.estimates)

    @pytest.mark.parametrize("name, method, tau", [("obs-ltv", "weighted", 120),
                                                   ("clock-ensemble", "ordinary", 60)])
    def test_chunk_size_does_not_change_results(self, monkeypatch, name, method, tau):
        """Runs simulated one at a time, three at a time (7 runs: chunks of
        3, 3, 1) or all at once, in one process or two, give the same
        estimates and mean estimate covariances bit for bit."""
        spec = preset(name, tau=tau, n_mc=7, seed=4)
        real = benchmarks.simulate_runs
        chunks = []

        def recording(*args, seeds, **kwargs):
            chunks.append(len(seeds))
            return real(*args, seeds=seeds, **kwargs)

        monkeypatch.setattr(benchmarks, "simulate_runs", recording)
        results = []
        for chunk, workers in ((1, 1), (3, 1), (spec.n_mc, 1), (3, 2)):
            monkeypatch.setattr(benchmarks, "_RUN_CHUNK", chunk)
            results.append(run_mc(spec, method, workers=workers))
        # the worker processes record in their own copies of the list
        assert chunks == [1] * 7 + [3, 3, 1] + [7]
        first = results[0]
        for res in results[1:]:
            assert np.array_equal(res.estimates, first.estimates)
            if method == "weighted":
                assert np.array_equal(res.mean_est_cov_diag, first.mean_est_cov_diag)
            else:
                assert res.mean_est_cov_diag is None

    def test_weighted_collects_estimate_covariances(self):
        spec = preset("obs-ltv", tau=150, n_mc=3, seed=2)
        res = run_mc(spec, "weighted")
        assert res.mean_est_cov_diag is not None
        assert res.mean_est_cov_diag.shape == (2,)
        assert np.all(res.mean_est_cov_diag > 0)


class TestEmitters:
    def test_table_shape_and_round_trip(self, tmp_path):
        spec = preset("obs-ltv", tau=120, n_mc=5, seed=1)
        res = run_mc(spec, "weighted")
        txt_path, csv_path = emit_table(res, spec, tmp_path)
        runs_path = emit_plot_data(res, spec, tmp_path)

        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["param", "true", "s_mean", "s_cov", "est_cov"]
        assert len(rows) == 1 + 2 + 1              # header, params, runtime footer
        assert rows[-1][0] == "runtime_per_run_s"
        # scientific notation with at least 4 significant digits
        assert "e" in rows[1][1] and len(rows[1][1].split(".")[1].split("e")[0]) >= 4

        with open(runs_path) as fh:
            runs_rows = list(csv.reader(fh))
        assert runs_rows[1][0] == "true"
        parsed = np.array([[float(c) for c in row[1:]] for row in runs_rows[2:]])
        assert parsed.shape == (5, 2)
        assert np.array_equal(parsed.mean(axis=0), res.sample_mean)

        text = open(txt_path).read()
        assert "runtime_per_run_s" in text

    def test_ordinary_table_has_no_est_cov(self, tmp_path):
        spec = preset("obs-ltv", tau=120, n_mc=3, seed=1)
        res = run_mc(spec, "ordinary")
        _, csv_path = emit_table(res, spec, tmp_path)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["param", "true", "s_mean", "s_cov"]
