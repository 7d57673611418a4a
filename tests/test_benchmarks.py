import csv
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mdmest import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    DataError,
    IndefiniteWeight,
    InitialCondition,
    MdmError,
    NoAnnihilator,
    RankDeficientDesign,
    ValidationError,
    build_design,
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
from mdmest.linalg import Tolerance
from mdmest.model import MatrixSequence

CHUNK_SIZES = benchmarks._chunk_sizes


def cap_chunks(monkeypatch, chunk):
    """Simulate, and estimate, at most ``chunk`` runs at a time in run_mc
    (and in the worker processes it forks)."""
    monkeypatch.setattr(benchmarks, "_chunk_sizes", lambda *args: tuple(
        min(chunk, size) for size in CHUNK_SIZES(*args)))


class TestPresetFidelity:
    def test_clock_constants(self):
        spec = preset("clock-ensemble")
        ts = 10.0
        assert spec.L == 10 and spec.tau == 1000 and spec.mode == KNOWN_INPUT
        assert np.array_equal(spec.model.F[0],
                              np.kron(np.eye(3), [[1.0, ts], [0.0, 1.0]]))
        assert not spec.model.has_input and spec.model.G[0].shape == (6, 0)
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

    @pytest.mark.parametrize("tau", [0, -1])
    @pytest.mark.parametrize("name", ["obs-ltv", "unobs-unknown-input", "clock-ensemble"])
    def test_horizon_below_one_is_refused(self, name, tau):
        """tau=0 used to raise ZeroDivisionError and tau=-1 a shape error
        (or build the clock with tau=-1)."""
        with pytest.raises(ValueError, match=rf"^preset horizon tau={tau}; "
                                             "it must be at least 1$"):
            preset(name, tau=tau)

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
        ``weighted_pipeline`` on ``build_stacked_system`` of its trajectory,
        which warns once for each run that run_mc counts as psd-repaired."""
        spec = preset(name, tau=tau, n_mc=5, seed=11)
        res = run_mc(spec, "weighted")
        covs = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for i in range(spec.n_mc):
                traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                                input_signal=benchmark_input_signal(spec),
                                seed=spec.seed + i)
                sys_full = build_stacked_system(spec.model, spec.structure, traj,
                                                spec.L, spec.mode)
                est = weighted_pipeline(sys_full)
                assert np.array_equal(res.estimates[i], est.alpha_hat), i
                covs.append(np.diag(est.cov))
        assert np.array_equal(res.mean_est_cov_diag, np.array(covs).mean(axis=0))
        assert len(caught) == res.weighted_branches["psd-repaired"]

    @pytest.mark.parametrize("n_mc", [0, -2])
    def test_run_count_below_one_is_rejected(self, n_mc):
        with pytest.raises(ValueError, match="n_mc must be at least 1"):
            run_mc(preset("obs-ltv", tau=50), "ordinary", n_mc=n_mc)

    @pytest.mark.parametrize("method", ["weighted-full-rank", "Ordinary", ""])
    def test_unknown_method_is_rejected(self, monkeypatch, method):
        monkeypatch.setattr(benchmarks, "build_design", None)
        with pytest.raises(ValueError, match="^method must be 'ordinary' or 'weighted'$"):
            run_mc(preset("obs-ltv", tau=50), method)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_rejected(self, monkeypatch, workers):
        # rejected before any run is simulated or any process started
        monkeypatch.setattr(benchmarks, "build_design", None)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_mc(preset("obs-ltv", tau=50), "ordinary", workers=workers)

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
            cap_chunks(monkeypatch, chunk)
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

    @pytest.mark.parametrize("name, tau, sizes", [("clock-ensemble", 1000, (5, 1)),
                                                  ("clock-ensemble", 60, (89, 4)),
                                                  ("obs-ltv", 1000, (32, 32)),
                                                  ("unobs-unknown-input", 100, (108, 54))])
    def test_chunk_bound_covers_the_residues(self, name, tau, sizes):
        """The (runs, n_rows) squared residues formed together stay within
        the element bound, which alone sizes the chunks: the clock's
        134,912 rows per run at tau=1000 are formed one run at a time,
        while its runs are still simulated five at a time, and unobs's 303
        state entries and 600 rows per run at tau=100 give chunks of 108
        and 54 runs."""
        spec = preset(name, tau=tau)
        design = build_design(spec.model, spec.structure, spec.L, spec.mode)
        assert benchmarks._chunk_sizes(spec, design) == sizes
        assert sizes[1] == 1 or sizes[1] * design.n_rows <= benchmarks._CHUNK_ELEMENTS

    @pytest.mark.parametrize("name, tau, size", [("obs-ltv", 1000, 16),
                                                 ("clock-ensemble", 30, 1),
                                                 ("unobs-unknown-input", 100, 5)])
    def test_chunk_bound_covers_the_weight_band(self, name, tau, size):
        """Weighted runs are estimated together only as far as the
        (runs, b+1, m) weight bands ``assemble_p`` builds stay within the
        element bound: obs-ltv's 2 x 1000 band per run at tau=1000 gives
        batches of 16, unobs-unknown-input's kept rows' 11 x 501 at tau=100
        batches of 5, and the clock's kept rows' 415 x 787 at tau=30 one run
        at a time.  The simulation chunk is the ordinary one."""
        spec = preset(name, tau=tau)
        design = build_design(spec.model, spec.structure, spec.L, spec.mode)
        sim_size = benchmarks._chunk_sizes(spec, design)[0]
        assert benchmarks._chunk_sizes(spec, design, "weighted") == (sim_size, size)
        b1, m = design.weight_band_shape
        assert size == 1 or size * b1 * m <= benchmarks._CHUNK_ELEMENTS

    # (chunk size, method, run_mc's error text).  The first run (seed 1)
    # of a state that doubles each step overflows its measurements at
    # record 528; of noises near the largest float, the run with seed 5
    # (the second) has finite squared residues that overflow the ordinary
    # solve, while the weight band of the run with seed 4 overflows before
    # it.
    OVERFLOWS = [
        ("measurement", "ordinary",
         "run with seed 1 failed: record k=528: measurement or residue is not finite"),
        ("measurement", "weighted",
         "run with seed 1 failed: record k=528: measurement or residue is not finite"),
        ("residue", "ordinary",
         "run with seed 5 failed: squared residues overflow the least-squares solve"),
        ("residue", "weighted",
         "run with seed 4 failed: weight matrix is not finite"),
    ]

    @pytest.mark.parametrize("chunk", [1, 2, 32])
    @pytest.mark.parametrize("what, method, text", OVERFLOWS)
    def test_overflow_names_the_run_and_record(self, monkeypatch, chunk, what,
                                               method, text):
        """A run whose measurements, residues, solve or weight band
        overflow fails with the seed of the first run that fails and what
        overflowed, whatever the chunk size."""
        if what == "measurement":
            spec = preset("obs-ltv", tau=600, n_mc=3, seed=1)
            spec = replace(spec, model=replace(spec.model, F=MatrixSequence(np.array([[2.0]]))),
                           init=InitialCondition(mean=np.zeros(1), cov=np.array([[1e300]])))
        else:
            spec = replace(preset("obs-ltv", tau=100, n_mc=7, seed=4),
                           alpha_true=np.array([1.2e307, 1.2e307]))
        cap_chunks(monkeypatch, chunk)
        with pytest.raises(MdmError, match=re.escape(text)):
            run_mc(spec, method)

    # (spec, tolerance, run_mc's error text).  At rank_tol 0.006 the obs-ltv
    # design at tau=40 keeps full rank (on 30 kept of its 40 rows), and the
    # whitened design of the run with seed 4 alone (the fourth) loses it.
    # With noises near 1e306, the weight band of every run overflows, and
    # the run with seed 1, the first, fails first.
    MID_CHUNK = [
        ("obs-ltv", 40, 1, 5, None, 0.006,
         "run with seed 4 failed: design matrix rank 1 < 2 parameters"),
        ("obs-ltv", 100, 1, 4, 1e306, 1e-10,
         "run with seed 1 failed: weight matrix is not finite"),
    ]

    @pytest.mark.parametrize("chunk, workers", [(1, 1), (2, 1), (32, 1), (32, 2)])
    @pytest.mark.parametrize("name, tau, seed, n_mc, noise, rank_tol, text", MID_CHUNK)
    def test_weighted_failure_names_the_first_failing_run(
            self, monkeypatch, chunk, workers, name, tau, seed, n_mc, noise, rank_tol,
            text):
        """A batch of weighted runs fails on its first failing run, in seed
        order, whichever stage each run fails in; so does a pool of worker
        processes, whose errors reach the caller as raised."""
        spec = preset(name, tau=tau, n_mc=n_mc, seed=seed)
        if noise is not None:
            spec = replace(spec, alpha_true=np.full(2, noise))
        cap_chunks(monkeypatch, chunk)
        with pytest.raises(MdmError, match=re.escape(text)):
            run_mc(spec, "weighted", workers=workers, tol=Tolerance(rank_tol=rank_tol))

    @pytest.mark.parametrize("error", [
        RankDeficientDesign(1, 2), NoAnnihilator(rows=3, rank=3, k=4),
        DataError("record k=7: measurement or residue is not finite", run=2),
        ValidationError(["alpha has length 1, structure defines 2"]),
        IndefiniteWeight("weight matrix has eigenvalue -1.000e+00 below -1.000e-10"),
    ])
    def test_errors_cross_process_boundaries(self, error):
        """An error, its run and the "run with seed" prefix survive pickling,
        as a worker process's error must: a RankDeficientDesign used to
        break the process pool instead."""
        failed = benchmarks._failed(error, 9)
        failed.run = 3
        back = pickle.loads(pickle.dumps(failed))
        assert type(back) is type(error)
        assert str(back) == str(failed) and back.run == 3
        assert back.__dict__ == failed.__dict__

    def test_weight_band_budget_names_the_first_run(self):
        """A weight band beyond the assembly budget (the clock at tau=1000:
        1360 x 134,912 entries) fails the batch's first run, as before."""
        with pytest.raises(MdmError, match=re.escape(
                "run with seed 0 failed: weight band of 1360 x 134912 entries "
                "exceeds the assembly limit")):
            run_mc(preset("clock-ensemble", tau=1000, n_mc=1), "weighted")

    @pytest.mark.parametrize("name, tau, n_mc, counts", [
        ("obs-ltv", 200, 5, {"full-rank": 5, "kept-row": 0, "dense": 0,
                             "psd-repaired": 0}),
        ("unobs-unknown-input", 100, 6, {"full-rank": 0, "kept-row": 6, "dense": 0,
                                         "psd-repaired": 6}),
        ("clock-ensemble", 30, 2, {"full-rank": 0, "kept-row": 1, "dense": 1,
                                   "psd-repaired": 0}),
    ])
    def test_weighted_branch_counts(self, tmp_path, name, tau, n_mc, counts):
        """run_mc counts the weighted runs per solve branch and the runs
        whose first pass was projected, in one or two processes, and does
        not warn of the projections; the text table prints the counts, the
        CSV does not."""
        spec = preset(name, tau=tau, n_mc=n_mc, seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = run_mc(spec, "weighted")
        assert res.weighted_branches == counts
        assert not [w for w in caught if "indefinite" in str(w.message)]
        assert run_mc(spec, "weighted", workers=2).weighted_branches == counts
        assert run_mc(spec, "ordinary").weighted_branches is None
        txt_path, csv_path = emit_table(res, spec, tmp_path)
        line = "weighted_branches  " + "  ".join(f"{k} {v}" for k, v in counts.items())
        assert line in open(txt_path).read().splitlines()
        assert "weighted_branches" not in open(csv_path).read()

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
