import numpy as np
import pytest

from mdmest import (
    DataError,
    IndefiniteWeight,
    InitialCondition,
    KNOWN_INPUT,
    NoAnnihilator,
    NotPositiveSemidefinite,
    RankDeficientDesign,
    UNKNOWN_INPUT,
    assemble_p,
    build_design,
    build_stacked_system,
    gaussian_eta_covariances,
    identifiability_report,
    min_feasible_window,
    ordinary_mdm,
    preset,
    simulate,
    weighted_mdm,
    weighted_pipeline,
)
from mdmest.benchmarks import benchmark_input_signal
from mdmest.model import MeasurementData


def simulated_system(name, tau, seed, method_mode=None, alpha=None):
    spec = preset(name, tau=tau)
    u = benchmark_input_signal(spec)
    traj = simulate(spec.model, spec.structure,
                    spec.alpha_true if alpha is None else alpha,
                    spec.init, input_signal=u, seed=seed)
    mode = method_mode or (UNKNOWN_INPUT if spec.mode == UNKNOWN_INPUT else KNOWN_INPUT)
    include_u = mode == KNOWN_INPUT and spec.model.has_input
    data = MeasurementData.from_trajectory(traj, include_u=include_u)
    sys_full = build_stacked_system(spec.model, spec.structure, data, spec.L, mode)
    return spec, sys_full


class TestBuildStackedSystem:
    def test_minimal_horizon_single_window(self, scalar_lti_model, scalar_structure):
        # tau = L - 1 leaves exactly one usable window
        L = 4
        data = MeasurementData(zs=[np.array([float(k)]) for k in range(L)])
        model = scalar_lti_model
        sys_full = build_stacked_system(model, scalar_structure, data, L)
        assert sys_full.n_windows == 1

    def test_window_count_obs_ltv(self):
        spec, sys_full = simulated_system("obs-ltv", tau=40, seed=0)
        # records 0..tau, so tau - L + 2 full windows, each one row here
        assert sys_full.n_windows == 40 - 2 + 2
        assert sys_full.n_rows == sys_full.n_windows
        assert sys_full.design.shape == (sys_full.n_rows, 2)

    def test_clock_row_counts(self):
        spec, sys_full = simulated_system("clock-ensemble", tau=30, seed=0)
        n_a = sys_full.windows[0].n_a
        assert n_a == 16
        per = n_a * (n_a + 1) // 2
        assert sys_full.n_rows == per * sys_full.n_windows

    def test_too_short_horizon(self, scalar_lti_model, scalar_structure):
        data = MeasurementData(zs=[np.array([1.0]), np.array([2.0])])
        with pytest.raises(DataError, match="horizon too short"):
            build_stacked_system(scalar_lti_model, scalar_structure, data, 5)

    def test_no_annihilator_reports_minimal_window(self):
        spec = preset("obs-ltv", tau=20)
        with pytest.raises(NoAnnihilator) as err:
            build_design(spec.model, spec.structure, 1, KNOWN_INPUT)
        assert err.value.minimal_feasible_l == 2
        assert "smallest feasible window length is L=2" in str(err.value)

    def test_ragged_data_rejected(self, scalar_lti_model, scalar_structure):
        data = MeasurementData(zs=[np.array([1.0]), np.array([2.0, 3.0])])
        with pytest.raises(DataError, match="record k=1"):
            build_stacked_system(scalar_lti_model, scalar_structure, data, 2)

    @pytest.mark.parametrize("field", ["zs", "us"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_data_rejected(self, field, bad):
        spec = preset("obs-ltv", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        data = MeasurementData.from_trajectory(traj)
        getattr(data, field)[5] = np.array([bad])
        with pytest.raises(DataError, match="record k=5"):
            build_stacked_system(spec.model, spec.structure, data, 2)

    @pytest.mark.parametrize("name, warns", [("clock-ensemble", False),
                                             ("obs-ltv", True)])
    def test_zero_input_warning_only_for_effective_input(self, caplog, name, warns):
        spec = preset(name, tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        data = MeasurementData.from_trajectory(traj, include_u=False)
        with caplog.at_level("WARNING", logger="mdmest.estimator"):
            build_stacked_system(spec.model, spec.structure, data, spec.L)
        assert ("assuming zero input" in caplog.text) == warns


class TestMinFeasibleWindow:
    def test_presets(self):
        for name, expected in (("obs-ltv", 2), ("clock-ensemble", 3)):
            spec = preset(name, tau=30)
            assert min_feasible_window(spec.model, KNOWN_INPUT) == expected

    def test_unknown_input_needs_wider_window(self, ge_equal_model):
        assert min_feasible_window(ge_equal_model, UNKNOWN_INPUT) == 2


class TestOrdinaryMdm:
    def test_noise_free_recovers_zero(self):
        spec = preset("obs-ltv", tau=200)
        init = InitialCondition(mean=np.ones(1), cov=np.zeros((1, 1)))
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, np.zeros(2), init,
                        input_signal=u, seed=0)
        sys_full = build_stacked_system(spec.model, spec.structure, traj, 2)
        est = ordinary_mdm(sys_full)
        assert np.max(np.abs(est.alpha_hat)) < 1e-8

    def test_single_run_within_five_sample_stds(self):
        spec, sys_full = simulated_system("obs-ltv", tau=1000, seed=42)
        est = ordinary_mdm(sys_full)
        bound = 5.0 * np.sqrt(np.array([0.048, 0.015]))
        assert np.all(np.abs(est.alpha_hat - [2.0, 1.0]) < bound)
        assert est.method == "ordinary"
        assert est.cov is None
        assert est.rank == 2

    def test_rank_deficient_design_raises(self, ge_equal_model, ge_equal_structure):
        traj = simulate(ge_equal_model, ge_equal_structure, [1.0, 0.5],
                        input_signal=np.sin(np.arange(61) / 60.0)[:, None], seed=1)
        data = MeasurementData.from_trajectory(traj, include_u=False)
        sys_full = build_stacked_system(ge_equal_model, ge_equal_structure, data,
                                        2, UNKNOWN_INPUT)
        with pytest.raises(RankDeficientDesign) as err:
            ordinary_mdm(sys_full)
        assert err.value.rank == 1 and err.value.n_alpha == 2


class TestGaussianEtaCovariances:
    def test_scalar_white_window_one(self, scalar_structure):
        r_var = 1.7
        etas = gaussian_eta_covariances(scalar_structure, [0.0, r_var], 1)
        band0 = etas.band(0)
        assert band0.shape == (1, 1)
        assert np.allclose(band0[0, 0], 2.0 * r_var ** 2)

    def test_band_beyond_window_is_zero(self, scalar_structure):
        etas = gaussian_eta_covariances(scalar_structure, [2.0, 1.0], 2)
        assert np.array_equal(etas.band(5), np.zeros((9, 9)))

    def test_indefinite_alpha_raises_without_repair(self, scalar_structure):
        with pytest.raises(NotPositiveSemidefinite):
            gaussian_eta_covariances(scalar_structure, [-1.0, 1.0], 2)

    def test_indefinite_alpha_repairs_with_warning(self, scalar_structure):
        with pytest.warns(RuntimeWarning):
            etas = gaussian_eta_covariances(scalar_structure, [-1e-3, 1.0], 2,
                                            repair=True)
        assert etas.repaired
        band0 = etas.band(0)
        lam = np.linalg.eigvalsh(0.5 * (band0 + band0.T))
        assert lam[0] > -1e-9

    def test_sampling_oracle_obs_ltv(self, rng):
        """Every band entry matches empirical fourth moments of the noises."""
        q_var, r_var = 2.0, 1.0
        spec = preset("obs-ltv", tau=10)
        etas = gaussian_eta_covariances(spec.structure, [q_var, r_var], 2)
        n = 200000
        w = rng.standard_normal((n, 2)) * np.sqrt(q_var)   # w_k, w_{k+1}
        v = rng.standard_normal((n, 3)) * np.sqrt(r_var)   # v_k, v_{k+1}, v_{k+2}
        eps_k = np.column_stack([w[:, 0], v[:, 0], v[:, 1]])
        eps_k1 = np.column_stack([w[:, 1], v[:, 1], v[:, 2]])
        re2 = etas.r_e2
        eta_k = np.einsum("ni,nj->nij", eps_k, eps_k).reshape(n, 9) - re2
        eta_k1 = np.einsum("ni,nj->nij", eps_k1, eps_k1).reshape(n, 9) - re2
        for j, eta_b in ((0, eta_k), (1, eta_k1)):
            prod = np.einsum("ni,nj->nij", eta_k, eta_b).reshape(n, 81)
            mean = prod.mean(axis=0)
            se = prod.std(axis=0, ddof=1) / np.sqrt(n)
            band = etas.band(j).reshape(81)
            assert np.all(np.abs(mean - band) <= 4.0 * se + 1e-12)


class TestAssembleP:
    def test_window_one_block_diagonal(self):
        # two sensors on a scalar state admit an annihilator already at L=1
        from mdmest import LtvModel, NoiseStructure
        model = LtvModel.create(n_x=1, n_w=1, n_v=2, tau=5, F=[[0.9]], G=None,
                                E=[[1.0]], H=[[1.0], [1.0]], D=np.eye(2))
        structure = NoiseStructure.from_pairs(
            [(np.array([[1.0]]), np.zeros((2, 2))),
             (np.array([[0.0]]), np.eye(2))])
        data = MeasurementData(zs=[np.array([float(k), 1.0]) for k in range(6)])
        sys_full = build_stacked_system(model, structure, data, 1)
        etas = gaussian_eta_covariances(structure, [0.0, 1.3], 1)
        p = assemble_p(sys_full, etas)
        off_diag = p - np.diag(np.diag(p))
        assert np.max(np.abs(off_diag)) == 0.0
        assert np.all(np.diag(p) > 0)

    def test_symmetry_and_direct_route(self):
        spec, sys_full = simulated_system("obs-ltv", tau=30, seed=0)
        etas = gaussian_eta_covariances(spec.structure, spec.alpha_true, 2)
        p = assemble_p(sys_full, etas)
        assert np.max(np.abs(p - p.T)) < 1e-10 * np.max(np.abs(p))
        # direct route through materialised band matrices
        m = sys_full.n_rows
        direct = np.zeros((m, m))
        offs = sys_full.row_offsets
        for j in range(sys_full.L):
            band = etas.band(j)
            for r in range(sys_full.n_windows - j):
                blk = (sys_full.windows[r].noisemap_block @ band
                       @ sys_full.windows[r + j].noisemap_block.T)
                direct[offs[r]:offs[r + 1], offs[r + j]:offs[r + j + 1]] = blk
                if j:
                    direct[offs[r + j]:offs[r + j + 1], offs[r]:offs[r + 1]] = blk.T
        assert np.allclose(p, direct, rtol=1e-10, atol=1e-12)

    def test_monte_carlo_covariance_oracle(self):
        """Empirical moments of the stacked residual match P(alpha_true).

        Independent vectorised re-simulation of the small observable
        benchmark; checks both the zero-mean property and the covariance.
        """
        tau, n_runs = 20, 20000
        spec = preset("obs-ltv", tau=tau)
        model = spec.model
        sys0 = build_design(model, spec.structure, 2, KNOWN_INPUT)
        rng = np.random.default_rng(99)

        f_k = np.array([model.F[k][0, 0] for k in range(tau)])
        h_k = np.array([model.H[k][0, 0] for k in range(tau + 1)])
        u_k = np.sin(np.arange(tau + 1) / tau)
        x = 1.0 + rng.standard_normal(n_runs)
        xs = np.empty((tau + 1, n_runs))
        xs[0] = x
        w = rng.standard_normal((tau, n_runs)) * np.sqrt(2.0)
        v = rng.standard_normal((tau + 1, n_runs))
        for k in range(tau):
            xs[k + 1] = f_k[k] * xs[k] + u_k[k] + w[k]
        zs = h_k[:, None] * xs + v

        obs = np.empty((tau, n_runs))
        for k in range(tau):
            wg = sys0.windows[k]
            zw = np.vstack([zs[k], zs[k + 1]]) - wg.gamma_g @ np.array([[u_k[k]]])
            zt = wg.annihilator @ zw
            obs[k] = zt[0] ** 2

        resid = obs - (sys0.design @ spec.alpha_true)[:, None]
        mean = resid.mean(axis=1)
        se = resid.std(axis=1, ddof=1) / np.sqrt(n_runs)
        assert np.all(np.abs(mean) <= 4.0 * se)

        etas = gaussian_eta_covariances(spec.structure, spec.alpha_true, 2)
        p = assemble_p(sys0, etas)
        for j in (0, 1):
            prods = resid[: tau - j] * resid[j:]
            emp = prods.mean(axis=1)
            emp_se = prods.std(axis=1, ddof=1) / np.sqrt(n_runs)
            theory = np.array([p[r, r + j] for r in range(tau - j)])
            assert np.all(np.abs(emp - theory) <= 5.0 * emp_se)

    def test_band_dimension_mismatch(self, scalar_structure):
        spec, sys_full = simulated_system("obs-ltv", tau=20, seed=0)
        etas = gaussian_eta_covariances(scalar_structure, [2.0, 1.0], 3)
        with pytest.raises(ValueError):
            assemble_p(sys_full, etas)


class TestWeightedMdm:
    def test_identity_weight_equals_ordinary(self):
        spec, sys_full = simulated_system("obs-ltv", tau=300, seed=5)
        est_o = ordinary_mdm(sys_full)
        est_w = weighted_mdm(sys_full, np.eye(sys_full.n_rows))
        scale = np.max(np.abs(est_o.alpha_hat))
        assert np.max(np.abs(est_w.alpha_hat - est_o.alpha_hat)) < 1e-9 * scale
        assert est_w.method == "weighted-full-rank"
        assert est_w.cov is not None

    def test_constrained_branch_matches_full_rank(self):
        spec, sys_full = simulated_system("obs-ltv", tau=300, seed=6)
        est_o = ordinary_mdm(sys_full)
        etas = gaussian_eta_covariances(spec.structure, est_o.alpha_hat, 2,
                                        repair=True)
        p_hat = assemble_p(sys_full, etas)
        est_full = weighted_mdm(sys_full, p_hat, branch="full-rank")
        est_con = weighted_mdm(sys_full, p_hat, branch="constrained")
        scale = np.max(np.abs(est_full.alpha_hat))
        assert np.max(np.abs(est_full.alpha_hat - est_con.alpha_hat)) < 1e-8 * scale
        cov_scale = np.max(np.abs(est_full.cov))
        assert np.max(np.abs(est_full.cov - est_con.cov)) < 1e-6 * cov_scale
        assert est_full.method == "weighted-full-rank"
        assert est_con.method == "weighted-constrained"

    def test_indefinite_weight_rejected(self):
        spec, sys_full = simulated_system("obs-ltv", tau=30, seed=7)
        bad = np.eye(sys_full.n_rows)
        bad[0, 0] = -1.0
        with pytest.raises(IndefiniteWeight):
            weighted_mdm(sys_full, bad)


class TestThreeStepPipeline:
    def test_noise_free_takes_constrained_branch(self):
        spec = preset("obs-ltv", tau=100)
        init = InitialCondition(mean=np.ones(1), cov=np.zeros((1, 1)))
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, np.zeros(2), init,
                        input_signal=u, seed=0)
        est = weighted_pipeline(
            build_stacked_system(spec.model, spec.structure, traj, 2), spec.structure)
        assert est.method == "weighted-constrained"
        assert np.max(np.abs(est.alpha_hat)) < 1e-8

    def test_pipeline_records_first_pass(self):
        spec, sys_full = simulated_system("obs-ltv", tau=400, seed=9)
        est = weighted_pipeline(sys_full, spec.structure)
        assert "alpha_ordinary" in est.diagnostics
        assert est.method == "weighted-full-rank"
        assert np.all(np.diag(est.cov) > 0)


class TestIdentifiability:
    def test_presets_fully_identifiable(self):
        for name, l_win, n_alpha in (("obs-ltv", 2, 2),
                                     ("unobs-unknown-input", 2, 6),
                                     ("clock-ensemble", 10, 8)):
            spec = preset(name, tau=40)
            mode = UNKNOWN_INPUT if spec.mode == UNKNOWN_INPUT else KNOWN_INPUT
            sys0 = build_design(spec.model, spec.structure, l_win, mode)
            report = identifiability_report(sys0)
            assert report.rank == n_alpha == report.n_alpha
            assert report.null_basis is None

    def test_equal_g_e_unidentifiable_state_noise(self, ge_equal_model,
                                                  ge_equal_structure):
        sys0 = build_design(ge_equal_model, ge_equal_structure, 2, UNKNOWN_INPUT)
        report = identifiability_report(sys0)
        assert report.rank == 1
        assert report.null_basis.shape == (2, 1)
        # the blind direction is the state-noise parameter
        assert report.participation[0] > 0.99
        assert report.participation[1] < 1e-6

    def test_single_parameter(self):
        spec = preset("obs-ltv", tau=20)
        from mdmest import NoiseStructure
        structure = NoiseStructure.from_pairs(
            [(np.array([[1.0]]), np.array([[1.0]]))])
        sys0 = build_design(spec.model, structure, 2, KNOWN_INPUT)
        report = identifiability_report(sys0)
        assert report.rank == 1
