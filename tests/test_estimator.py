import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st

from mdmest import (
    DataError,
    IndefiniteWeight,
    InitialCondition,
    KNOWN_INPUT,
    MdmError,
    NoAnnihilator,
    NoiseStructure,
    NotPositiveSemidefinite,
    RankDeficientDesign,
    Tolerance,
    UNKNOWN_INPUT,
    assemble_p,
    build_design,
    build_stacked_system,
    gaussian_eta_covariances,
    identifiability_report,
    min_feasible_window,
    numerical_rank,
    ordinary_estimates,
    ordinary_mdm,
    preset,
    simulate,
    simulate_runs,
    weighted_estimates,
    weighted_mdm,
    weighted_pipeline,
)
from mdmest.benchmarks import benchmark_input_signal
from mdmest.estimator import P_DENSE_MAX_ROWS
from mdmest.model import MeasurementData

from conftest import (
    dense_from_band,
    make_ragged_ltv_model,
    make_ragged_ltv_structure,
    noise_map,
)
from test_geometry import window_cases
from test_residue import window_noises

INDEFINITE_MESSAGE = r"^weight matrix has eigenvalue -\S+ below -\S+$"


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
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_data_rejected(self, field, bad):
        spec = preset("obs-ltv", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        data = MeasurementData.from_trajectory(traj)
        getattr(data, field)[5] = np.array([bad])
        with pytest.raises(DataError, match="record k=5"):
            build_stacked_system(spec.model, spec.structure, data, 2)

    def test_missing_input_records_rejected(self):
        spec = preset("obs-ltv", tau=20)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        data = MeasurementData.from_trajectory(traj)
        data.us = data.us[:-2]
        with pytest.raises(DataError, match="data has 19 input records but its "
                                            "21 measurement records need 20"):
            build_stacked_system(spec.model, spec.structure, data, 2)
        data.us = data.us[:-1] + [np.zeros(1)] * 2
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


class TestBatchEntryPoints:
    """Malformed input to ``residues``, ``ordinary_estimates`` and
    ``weighted_estimates`` raises DataError, naming the run and window of
    a value that is not finite."""

    @staticmethod
    def batch():
        spec = preset("obs-ltv", tau=30)
        design = build_design(spec.model, spec.structure, spec.L, KNOWN_INPUT)
        runs = simulate_runs(spec.model, spec.structure, spec.alpha_true, spec.init,
                             input_signal=benchmark_input_signal(spec),
                             seeds=range(3))
        return spec, design, runs.z_records, runs.u_records[None]

    @pytest.mark.parametrize("cut", ["short", "flat", "runs"])
    def test_residues_reject_misshapen_input(self, cut):
        _, design, z, u = self.batch()
        u = {"short": u[:, :-2], "flat": u[0], "runs": np.vstack([u, u])}[cut]
        with pytest.raises(DataError, match=r"input records of shape"):
            design.residues(z, u)

    @pytest.mark.filterwarnings("error")
    def test_residues_name_the_first_nonfinite_run(self):
        _, design, z, u = self.batch()
        z[2, 4], z[1, 7] = np.inf, np.nan
        with pytest.raises(DataError, match="^record k=7: measurement") as err:
            design.residues(z, u)
        assert err.value.run == 1

    @pytest.mark.parametrize("weighted", [False, True])
    def test_nonfinite_squared_residue_names_its_run_and_window(self, weighted):
        spec, design, z, u = self.batch()
        obs = design.residues(z, u)
        obs[2, design.row_offsets[9]] = np.nan
        with pytest.raises(DataError, match="^record k=9: squared residue is not "
                                            "finite$") as err:
            if weighted:
                weighted_estimates(design, obs, spec.structure)
            else:
                ordinary_estimates(design, obs)
        assert err.value.run == 2
        with pytest.raises(DataError, match="^record k=9:") as err:
            ordinary_estimates(design, obs[2])
        assert err.value.run is None

    @pytest.mark.parametrize("weighted", [False, True])
    def test_wrong_row_count_rejected(self, weighted):
        spec, design, z, u = self.batch()
        obs = design.residues(z, u)[:, :-1]
        with pytest.raises(DataError, match=rf"shape \(3, {design.n_rows - 1}\); "
                                            rf"the design has {design.n_rows} rows"):
            if weighted:
                weighted_estimates(design, obs, spec.structure)
            else:
                ordinary_estimates(design, obs)

    def test_weighted_estimates_take_runs_of_rows(self):
        spec, design, z, u = self.batch()
        obs = design.residues(z, u)
        with pytest.raises(DataError, match=rf"shape \({design.n_rows},\); "
                                            rf"weighted_estimates takes \(runs, "):
            weighted_estimates(design, obs[0], spec.structure)


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

    def test_projection_is_exact_bands_of_projected_covariances(self):
        # Q = diag(2, -1) projects to diag(2, 0); R = I needs no projection
        structure = NoiseStructure.from_pairs([
            (np.diag([1.0, 0.0]), np.zeros((1, 1))),
            (np.diag([0.0, 1.0]), np.zeros((1, 1))),
            (np.zeros((2, 2)), np.eye(1)),
        ])
        with pytest.warns(RuntimeWarning, match="indefinite"):
            etas = gaussian_eta_covariances(structure, [2.0, -1.0, 1.0], 2,
                                            repair=True)
        assert etas.projection == (-0.5, 0.0)
        exact = gaussian_eta_covariances(structure, [2.0, 0.0, 1.0], 2)
        assert exact.projection == (0.0, 0.0) and not exact.repaired
        for j in range(2):
            assert np.array_equal(etas.band(j), exact.band(j))

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
        ab = assemble_p(sys_full, etas)
        assert ab.shape == (1, sys_full.n_rows)
        p = dense_from_band(ab)
        off_diag = p - np.diag(np.diag(p))
        assert np.max(np.abs(off_diag)) == 0.0
        assert np.all(np.diag(p) > 0)

    def test_symmetry_and_direct_route(self):
        """The band equals the dense direct route, which is 0 outside it.

        Runs on obs-ltv, on unobs-unknown-input with an indefinite first-pass
        estimate (the repair branch) and on a model whose windows have 1, 2
        or 3 residue rows.
        """
        spec, sys_obs = simulated_system("obs-ltv", tau=30, seed=0)
        etas_obs = gaussian_eta_covariances(spec.structure, spec.alpha_true, 2)
        spec, sys_ui = simulated_system("unobs-unknown-input", tau=40, seed=0)
        with pytest.warns(RuntimeWarning, match="indefinite"):
            etas_ui = gaussian_eta_covariances(spec.structure,
                                               ordinary_mdm(sys_ui).alpha_hat, 2,
                                               repair=True)
        assert etas_ui.repaired
        structure = make_ragged_ltv_structure()
        sys_rag = build_design(make_ragged_ltv_model(), structure, 2, KNOWN_INPUT)
        assert len({w.n_a for w in sys_rag.windows}) == 3
        etas_rag = gaussian_eta_covariances(structure, [1.5, 0.7], 2)
        for sys_full, etas in ((sys_obs, etas_obs), (sys_ui, etas_ui),
                               (sys_rag, etas_rag)):
            ab = assemble_p(sys_full, etas)
            p = dense_from_band(ab)
            assert np.max(np.abs(p - p.T)) < 1e-10 * np.max(np.abs(p))
            # direct route through materialised band matrices
            m = sys_full.n_rows
            direct = np.zeros((m, m))
            offs = sys_full.row_offsets
            for j in range(sys_full.L):
                band = etas.band(j)
                for r in range(sys_full.n_windows - j):
                    blk = (noise_map(sys_full.windows[r].ac) @ band
                           @ noise_map(sys_full.windows[r + j].ac).T)
                    direct[offs[r]:offs[r + 1], offs[r + j]:offs[r + j + 1]] = blk
                    if j:
                        direct[offs[r + j]:offs[r + j + 1], offs[r]:offs[r + 1]] = blk.T
            assert np.allclose(p, direct, rtol=1e-10, atol=1e-12)
            lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
            assert np.all(direct[lag >= ab.shape[0]] == 0.0)
            assert np.all(ab[np.arange(m) >= m - np.arange(ab.shape[0])[:, None]] == 0.0)

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
        p = dense_from_band(assemble_p(sys0, etas))
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
        est_w = weighted_mdm(sys_full, np.ones((1, sys_full.n_rows)))
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
        bad = np.ones((1, sys_full.n_rows))
        bad[0, 0] = -1.0
        with pytest.raises(IndefiniteWeight, match=INDEFINITE_MESSAGE):
            weighted_mdm(sys_full, bad)

    def test_singular_weight_takes_constrained_branch(self):
        spec, sys_full = simulated_system("obs-ltv", tau=30, seed=7)
        ab = np.ones((1, sys_full.n_rows))
        ab[0, 0] = 0.0
        assert weighted_mdm(sys_full, ab).method == "weighted-constrained"

    def test_whitened_rank_uses_the_shared_rule(self):
        """The whitened solve decides rank by the shared SVD rule.

        Two nearly collinear parameters and a diagonal weight give a
        whitened, equilibrated design whose sigma_min lies just below
        rank_tol * sigma_max * m while min |r_ii| of its QR, about twice as
        large, passes the same threshold.
        """
        spec = preset("obs-ltv", tau=40)
        one = np.ones((1, 1))
        structure = NoiseStructure.from_pairs([(one, one), (one, 1.0001 * one)])
        sys0 = build_design(spec.model, structure, 2, KNOWN_INPUT)
        assert sys0.rank == 2
        sys0 = replace(sys0, obs=sys0.design @ [1.0, 1.0])
        m = sys0.n_rows
        p = np.linspace(1.0, 2.0, m)
        tol = Tolerance(rank_tol=3e-7)
        whitened = sys0.design / np.sqrt(p)[:, None]
        d = whitened / np.linalg.norm(whitened, axis=0)
        s = np.linalg.svd(d, compute_uv=False)
        r_diag = np.abs(np.diag(np.linalg.qr(d, mode="r")))
        thr = tol.rank_tol * m
        assert 0.5 * thr < s[-1] / s[0] < thr
        assert np.min(r_diag) > thr * np.max(r_diag)
        with pytest.raises(RankDeficientDesign) as err:
            weighted_mdm(sys0, p[None], tol)
        assert err.value.rank == numerical_rank(d, tol) == 1
        assert err.value.n_alpha == 2

    @pytest.mark.parametrize("case", ["unobs-unknown-input", "noise-free"])
    def test_constrained_branch_matches_rao_reference(self, case):
        """Rao's unified LS estimator with the Moore-Penrose inverse of
        T = P + X X^T, from a dense eigendecomposition of T."""
        if case == "noise-free":
            # P = 0 and residues the model explains exactly; the estimators
            # agree for every g-inverse only when obs lies in the range of T
            spec = preset("obs-ltv", tau=100)
            sys_full = build_design(spec.model, spec.structure, 2, KNOWN_INPUT)
            sys_full = replace(sys_full, obs=sys_full.design @ spec.alpha_true)
            ab = np.zeros((1, sys_full.n_rows))
        else:
            spec, sys_full = simulated_system(case, tau=100, seed=0)
            with pytest.warns(RuntimeWarning, match="indefinite"):
                etas = gaussian_eta_covariances(
                    spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
            ab = assemble_p(sys_full, etas)
        est = weighted_mdm(sys_full, ab)
        assert est.method == "weighted-constrained"

        alpha, gram_inv = rao_reference(ab, sys_full)
        # cov = gram_inv - I loses the relative accuracy of gram_inv
        assert np.max(np.abs(est.alpha_hat - alpha)) <= 1e-12 * np.max(np.abs(alpha))
        assert (np.max(np.abs(est.cov + np.eye(sys_full.n_alpha) - gram_inv))
                <= 1e-12 * np.max(np.abs(gram_inv)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, bad):
        """A weight entry that is not finite is refused before any
        factorisation, on every branch, instead of changing the estimate."""
        spec, sys_full = simulated_system("obs-ltv", tau=300, seed=6)
        etas = gaussian_eta_covariances(spec.structure, ordinary_mdm(sys_full).alpha_hat, 2)
        ab = assemble_p(sys_full, etas)
        ab[0, 10] = bad
        for branch in ("auto", "full-rank", "constrained"):
            with pytest.raises(MdmError, match="^weight matrix is not finite$"):
                weighted_mdm(sys_full, ab, branch=branch)

    def test_unknown_branch_rejected(self):
        spec, sys_full = simulated_system("obs-ltv", tau=30, seed=7)
        with pytest.raises(ValueError, match="unknown branch 'bogus'"):
            weighted_mdm(sys_full, np.ones((1, sys_full.n_rows)), branch="bogus")

    def test_dense_weight_rejected(self):
        spec, sys_full = simulated_system("obs-ltv", tau=30, seed=7)
        m = sys_full.n_rows
        with pytest.raises(ValueError, match="past the end of a diagonal"):
            weighted_mdm(sys_full, np.eye(m))
        with pytest.raises(ValueError, match="band storage of shape"):
            weighted_mdm(sys_full, np.ones((1, m + 1)))

    def test_fit_statistic_matches_dense(self):
        spec, sys_full = simulated_system("obs-ltv", tau=50, seed=0)
        est_o = ordinary_mdm(sys_full)
        etas = gaussian_eta_covariances(spec.structure, est_o.alpha_hat, 2,
                                        repair=True)
        ab = assemble_p(sys_full, etas)
        est = weighted_mdm(sys_full, ab)
        assert est.method == "weighted-full-rank"
        r = sys_full.obs - sys_full.design @ est.alpha_hat
        j_dense = r @ np.linalg.solve(dense_from_band(ab), r)
        assert abs(est.diagnostics["fit_j"] - j_dense) < 1e-10 * j_dense
        assert est.diagnostics["fit_dof"] == sys_full.n_rows - 2
        est_con = weighted_mdm(sys_full, ab, branch="constrained")
        assert est_con.diagnostics["fit_j"] is None
        assert est_con.diagnostics["fit_dof"] is None


def noise_level_obs(sys0, traj):
    """The squared residues of ``traj``'s windows formed from its noises,
    ztilde_k = ac_k eps_k, so that rows shared by adjacent windows agree to
    roundoff of the residues themselves (annihilating a large state first
    can cost many digits: about 7 on the clock ensemble)."""
    rows = []
    for k, w in enumerate(sys0.windows):
        zt = w.ac @ window_noises(traj, k, sys0.L)
        rows.append(zt[w.sel_i] * zt[w.sel_j])
    return replace(sys0, obs=np.concatenate(rows))


def rao_reference(ab, sys_full):
    """Rao's unified LS estimate and its Gram inverse (X^T T^+ X)^{-1}, with
    the Moore-Penrose inverse of T = P + X X^T from a dense eigendecomposition."""
    x, y = sys_full.design, sys_full.obs
    lam, v = np.linalg.eigh(dense_from_band(ab) + x @ x.T)
    keep = lam > 1e-10 * lam[-1] * lam.size
    half = v[:, keep].T / np.sqrt(lam[keep])[:, None]
    x_w, y_w = half @ x, half @ y
    gram_inv = np.linalg.inv(x_w.T @ x_w)
    return gram_inv @ (x_w.T @ y_w), gram_inv


class TestReducedRows:
    """A singular weight is solved by GLS on the rows the design keeps."""

    @staticmethod
    def unobs_weight(seed):
        spec, sys_full = simulated_system("unobs-unknown-input", tau=100, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            etas = gaussian_eta_covariances(
                spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
        return sys_full, assemble_p(sys_full, etas)

    def test_unknown_input_matches_dense_constrained(self):
        for seed in range(20):
            sys_full, ab = self.unobs_weight(seed)
            est = weighted_mdm(sys_full, ab)
            dense = weighted_mdm(sys_full, ab, branch="constrained")
            assert est.method == dense.method == "weighted-constrained"
            # 6 rows of window 0, then 5 new rows for each of 99 windows
            assert sys_full.reduction.n_rows == est.diagnostics["weight_rows"] == 501
            assert dense.diagnostics["weight_rows"] is None
            scale = np.max(np.abs(dense.alpha_hat))
            assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale, seed
            cov_scale = np.max(np.abs(dense.cov))
            assert np.max(np.abs(est.cov - dense.cov)) <= 1e-12 * cov_scale, seed
            assert np.array_equal(est.cov, est.cov.T)

    def test_fit_statistic_is_pseudo_inverse_form(self):
        sys_full, ab = self.unobs_weight(0)
        est = weighted_mdm(sys_full, ab)
        r = sys_full.obs - sys_full.design @ est.alpha_hat
        p_pinv = np.linalg.pinv(dense_from_band(ab), rtol=1e-10, hermitian=True)
        j_dense = r @ p_pinv @ r
        assert abs(est.diagnostics["fit_j"] - j_dense) <= 1e-12 * j_dense
        assert est.diagnostics["fit_dof"] == 501 - 6

    def test_clock_ensemble_matches_dense_constrained(self):
        """On the clock (m = 2992, rank P = 787 = 136 + 21 * 31) P is some 40
        decades below X X^T, so the dense branch factors T = c P + X X^T with
        c = ||X||_2^2 / max diag P; the estimate does not depend on c and
        its covariance scales with it."""
        spec = preset("clock-ensemble", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        sys_full = noise_level_obs(
            build_design(spec.model, spec.structure, spec.L, spec.mode), traj)
        ab = assemble_p(sys_full, gaussian_eta_covariances(spec.structure,
                                                           spec.alpha_true, spec.L))
        est = weighted_mdm(sys_full, ab)
        assert est.method == "weighted-constrained"
        assert (sys_full.n_rows, est.diagnostics["weight_rows"]) == (2992, 787)
        c = np.linalg.norm(sys_full.design, 2) ** 2 / np.max(ab[0])
        dense = weighted_mdm(sys_full, c * ab, branch="constrained")
        scale = np.max(np.abs(dense.alpha_hat))
        assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale
        assert (np.max(np.abs(est.cov - dense.cov / c))
                <= 1e-12 * np.max(np.abs(est.cov)))

    def test_clock_ensemble_dense_branch_balances_the_weight(self):
        """The dense branch balances P against X X^T itself: on the clock at
        tau=30, where an unbalanced T loses P (rank 4 < 8), it gives the
        kept-row estimate from the unscaled weight."""
        spec = preset("clock-ensemble", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        sys_full = noise_level_obs(
            build_design(spec.model, spec.structure, spec.L, spec.mode), traj)
        ab = assemble_p(sys_full, gaussian_eta_covariances(spec.structure,
                                                           spec.alpha_true, spec.L))
        est = weighted_mdm(sys_full, ab)
        dense = weighted_mdm(sys_full, ab, branch="constrained")
        assert dense.method == "weighted-constrained"
        assert dense.diagnostics["weight_rows"] is None
        scale = np.max(np.abs(dense.alpha_hat))
        assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale
        assert np.max(np.abs(est.cov - dense.cov)) <= 1e-12 * np.max(np.abs(est.cov))

    def test_row_cap_only_on_the_dense_branch(self):
        """A 9000-row full-rank weight is solved banded; the dense branch
        alone keeps the 8000-row cap."""
        spec, sys_full = simulated_system("obs-ltv", tau=9000, seed=0)
        assert sys_full.n_rows > P_DENSE_MAX_ROWS
        est = weighted_pipeline(sys_full, spec.structure)
        assert est.method == "weighted-full-rank"
        assert est.diagnostics["weight_rows"] == sys_full.n_rows
        etas = gaussian_eta_covariances(spec.structure,
                                        est.diagnostics["alpha_ordinary"], 2)
        message = (r"^weight matrix of size 9000 exceeds the dense assembly limit "
                   r"8000; use the ordinary method or a shorter horizon$")
        with pytest.raises(MdmError, match=message):
            weighted_mdm(sys_full, assemble_p(sys_full, etas), branch="constrained")


@given(window_cases(), st.integers(0, 2**32 - 1))
def test_reduced_rows_are_the_rank_of_the_weight(case, seed):
    """On random small models, the kept rows number rank P and their GLS
    estimate is Rao's; the dense branch is taken only when P is singular
    beyond the shared rows.  The dense reference is accurate to about
    cond * eps, cond being that of P on its range, so only weights with
    cond < 1e5 are compared."""
    model, structure, L, mode = case
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        assume(False)
    assume(sys0.rank == structure.n_alpha and sys0.reduction is not None)
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.5, 2.0, structure.n_alpha)
    traj = simulate(model, structure, alpha, InitialCondition.default(model.n_x),
                    seed=seed)
    sys_full = noise_level_obs(sys0, traj)
    ab = assemble_p(sys_full, gaussian_eta_covariances(structure, alpha, L))
    lam = np.linalg.eigvalsh(dense_from_band(ab))
    lam = lam[lam > 1e-10 * lam[-1] * lam.size]
    assume(lam[-1] < 1e5 * lam[0])
    est = weighted_mdm(sys_full, ab)
    rank = numerical_rank(dense_from_band(ab))
    if est.diagnostics["weight_rows"] is None:
        event("dense branch")
        assert sys0.reduction.n_rows > rank
        return
    event("kept rows")
    assert est.diagnostics["weight_rows"] == sys0.reduction.n_rows == rank
    alpha_ref, _ = rao_reference(ab, sys_full)
    assert (np.max(np.abs(est.alpha_hat - alpha_ref))
            <= 1e-12 * np.max(np.abs(alpha_ref)))


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
        assert est.diagnostics["eta_projection"] == (0.0, 0.0)
        assert est.method == "weighted-full-rank"
        assert np.all(np.diag(est.cov) > 0)

    def test_unknown_input_short_horizon_succeeds(self):
        """The paper's case at tau=100: most first passes need the projection,
        and the weight is PSD, so no seed raises IndefiniteWeight."""
        for seed in range(20):
            spec, sys_full = simulated_system("unobs-unknown-input", tau=100,
                                              seed=seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                etas = gaussian_eta_covariances(
                    spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
                est = weighted_pipeline(sys_full, spec.structure)
            lam = np.linalg.eigvalsh(dense_from_band(assemble_p(sys_full, etas)))
            assert lam[0] >= -1e-12 * lam[-1], seed
            assert est.diagnostics["eta_projection"] == etas.projection
            assert np.array_equal(est.cov, est.cov.T)
            assert np.all(np.diag(est.cov) > 0)


@given(window_cases(), st.integers(0, 2**32 - 1))
def test_projected_weight_is_psd(case, seed):
    """P from a random, often indefinite, alpha is PSD after the projection,
    on random small (unobservable, ragged-n_z) models in either input mode."""
    model, _, L, mode = case
    rng = np.random.default_rng(seed)

    def sym(n):
        a = rng.standard_normal((n, n))
        return a + a.T

    structure = NoiseStructure.from_pairs(
        [(sym(model.n_w), sym(model.n_v)) for _ in range(3)])
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        etas = gaussian_eta_covariances(structure, rng.standard_normal(3), L,
                                        repair=True)
    lam = np.linalg.eigvalsh(dense_from_band(assemble_p(sys0, etas)))
    assert lam[0] >= -1e-12 * max(lam[-1], 0.0)


@given(window_cases(), st.integers(0, 2**32 - 1))
def test_ordinary_recovers_alpha_from_exact_moments(case, seed):
    """With obs = design @ alpha (the squared residues' expectation), the
    ordinary estimate is alpha, on random small identifiable designs."""
    model, structure, L, mode = case
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        assume(False)
    assume(sys0.rank == structure.n_alpha)
    alpha = np.random.default_rng(seed).uniform(-2.0, 2.0, structure.n_alpha)
    est = ordinary_mdm(replace(sys0, obs=sys0.design @ alpha))
    assert np.max(np.abs(est.alpha_hat - alpha)) <= 1e-10 * np.max(np.abs(alpha))


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
