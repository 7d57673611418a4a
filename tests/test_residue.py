import numpy as np
import pytest
from hypothesis import given, strategies as st

from mdmest import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    DataError,
    InitialCondition,
    LtvModel,
    NoAnnihilator,
    build_design,
    build_stacked_system,
    defining_replication,
    simulate,
    preset,
)
from mdmest.benchmarks import benchmark_input_signal
from mdmest.linalg import svd_rank, sym_pair_indices
from mdmest.residue import window_blocks

from conftest import (noise_map, replication_matrix, unification_matrix, window_arrays,
                      window_matrices)
from test_geometry import window_cases


def window_noises(traj, k, L):
    w = np.concatenate([traj.ws[k + i] for i in range(L - 1)]) if L > 1 else np.zeros(0)
    v = np.concatenate([traj.vs[k + i] for i in range(L)])
    return np.concatenate([w, v])


def window_residue(sys, data, k):
    """ztilde = N (Z - Gamma scriptG U) of window k, from the window geometry.

    Also checks that the system's obs block of window k is the unique-pair
    selection of ztilde ztilde^T.
    """
    w = window_arrays(sys, k)
    z = np.concatenate(data.zs[k:k + sys.L], axis=None)
    if data.us is not None and w.gamma_g is not None:
        z = z - w.gamma_g @ np.concatenate(data.us[k:k + sys.L - 1], axis=None)
    ztilde = w.annihilator @ z
    rows = slice(sys.row_offsets[k], sys.row_offsets[k + 1])
    assert np.array_equal(sys.obs[rows], ztilde[w.sel_i] * ztilde[w.sel_j])
    return ztilde


def regression_rows(ztilde, ac, upsilon):
    """obs, design and noise-map rows of one window, from ztilde and A C."""
    si, sj = sym_pair_indices(ztilde.size)
    noisemap = noise_map(ac)
    return ztilde[si] * ztilde[sj], noisemap @ upsilon, noisemap


class TestBuildAugmentedBlock:
    def test_window_one_degenerate(self, scalar_lti_model):
        block = window_matrices(scalar_lti_model, 3, 1)
        assert np.array_equal(block.O, scalar_lti_model.H[3])
        assert block.Gamma.shape == (1, 0)
        assert block.scriptG.shape == (0, 0)
        assert block.scriptE.shape == (0, 0)
        assert np.array_equal(block.scriptD, scalar_lti_model.D[3])

    def test_scalar_geometric_stack(self):
        f, h = 0.7, 2.0
        model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=10,
                                F=[[f]], G=None, E=[[1.0]], H=[[h]], D=[[1.0]])
        block = window_matrices(model, 0, 3)
        assert np.allclose(block.O[:, 0], [h, h * f, h * f * f])

    def test_obs_ltv_first_window(self):
        spec = preset("obs-ltv", tau=100)
        block = window_matrices(spec.model, 0, 2)
        h0 = 1.0 + 0.99 * np.sin(0.0)
        h1 = 1.0 + 0.99 * np.sin(100.0 * np.pi / 100)
        f0 = 0.8 - 0.1 * np.sin(0.0)
        assert np.allclose(block.O, [[h0], [h1 * f0]])
        assert np.allclose(block.Gamma, [[0.0], [h1]])

    def test_gamma_pattern_three_steps(self):
        # distinct matrices per step so every Gamma block is distinguishable
        f_seq = [np.array([[1.0, 0.1 * k], [0.0, 1.0]]) for k in range(5)]
        h_seq = [np.array([[1.0, float(k)]]) for k in range(5)]
        model = LtvModel.create(n_x=2, n_w=2, n_v=1, tau=4, F=f_seq, G=None,
                                E=np.eye(2), H=h_seq, D=np.eye(1))
        k, L = 1, 3
        block = window_matrices(model, k, L)
        assert np.allclose(block.Gamma[1, :2], h_seq[2][0])          # H_{k+1}
        assert np.allclose(block.Gamma[2, :2], h_seq[3][0] @ f_seq[2])  # H_{k+2} F_{k+1}
        assert np.allclose(block.Gamma[2, 2:], h_seq[3][0])          # H_{k+2}
        assert np.allclose(block.O[2], h_seq[3][0] @ f_seq[2] @ f_seq[1])

    def test_geometry_bitwise_with_scipy_block_diag(self, monkeypatch):
        """The local block_diag leaves every window's geometry, the design
        and the residues bitwise as scipy.linalg.block_diag gives them."""
        import scipy.linalg
        from mdmest import residue
        built = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(residue, "block_diag", scipy.linalg.block_diag)
            for name in ("obs-ltv", "unobs-unknown-input"):
                spec = preset(name, tau=40)
                traj = simulate(spec.model, spec.structure, spec.alpha_true,
                                spec.init, input_signal=benchmark_input_signal(spec),
                                seed=1)
                built.append(build_stacked_system(spec.model, spec.structure,
                                                  traj, 2, spec.mode))
        for ours, theirs in zip(built[:2], built[2:]):
            assert np.array_equal(ours.design, theirs.design)
            assert np.array_equal(ours.obs, theirs.obs)
            for k in range(ours.n_windows):
                assert np.array_equal(window_arrays(ours, k).annihilator,
                                      window_arrays(theirs, k).annihilator)

    def test_horizon_overrun(self, scalar_lti_model):
        with pytest.raises(DataError):
            window_matrices(scalar_lti_model, 49, 3)

    @pytest.mark.parametrize("L", [0, -2])
    def test_window_length_below_one_is_rejected(self, scalar_lti_model, L):
        with pytest.raises(ValueError, match="^window length L must be >= 1$"):
            window_blocks(scalar_lti_model, [0, 1], L)


class TestResidueKnownInput:
    def test_zero_noise_zero_residue(self):
        spec = preset("obs-ltv", tau=40)
        init = InitialCondition(mean=np.array([3.0]), cov=np.zeros((1, 1)))
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, np.zeros(2), init,
                        input_signal=u, seed=0)
        sys = build_stacked_system(spec.model, spec.structure, traj, 2)
        for k in (0, 10, 38):
            z = np.concatenate(traj.zs[k:k + 2], axis=None)
            ztilde = window_residue(sys, traj, k)
            assert np.max(np.abs(ztilde)) <= 1e-10 * (1 + np.max(np.abs(z)))

    def test_dual_path_oracle_obs_ltv(self):
        spec = preset("obs-ltv", tau=60)
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=5)
        sys = build_stacked_system(spec.model, spec.structure, traj, 2)
        for k in range(0, 59):
            ztilde = window_residue(sys, traj, k)
            direct = window_arrays(sys, k).ac @ window_noises(traj, k, 2)
            scale = 1 + np.max(np.abs(direct))
            assert np.max(np.abs(ztilde - direct)) < 1e-9 * scale

    def test_clock_residue_dimension(self):
        spec = preset("clock-ensemble", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        seed=2)
        sys = build_stacked_system(spec.model, spec.structure, traj, 10)
        window_residue(sys, traj, 0)
        rank = svd_rank(window_matrices(spec.model, 0, 10).O)[3]
        assert rank < 6
        assert window_arrays(sys, 0).n_a == 20 - rank

    def test_no_annihilator_signals_small_window(self, scalar_structure):
        model = LtvModel.create(n_x=2, n_w=1, n_v=1, tau=10, F=np.eye(2),
                                G=None, E=np.ones((2, 1)),
                                H=np.array([[1.0, 0.0], [0.0, 1.0]]),
                                D=np.ones((2, 1)) * np.array([[1.0], [0.0]]))
        with pytest.raises(NoAnnihilator) as err:
            build_design(model, scalar_structure, 1, KNOWN_INPUT)
        assert err.value.k == 0


class TestResidueUnknownInput:
    def test_zero_g_matches_known_subspace(self, scalar_structure):
        model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=10,
                                F=[[0.9]], G=np.zeros((1, 1)), E=[[1.0]],
                                H=[[1.0]], D=[[1.0]])
        known, unknown = (window_arrays(build_design(model, scalar_structure, 2, mode), 0)
                          for mode in (KNOWN_INPUT, UNKNOWN_INPUT))
        # same null space up to an orthogonal change of basis
        pk = known.annihilator.T @ known.annihilator
        pu = unknown.annihilator.T @ unknown.annihilator
        assert np.max(np.abs(pk - pu)) < 1e-12

    def test_input_invariance_unknown_mode(self):
        spec = preset("unobs-unknown-input", tau=50)
        u1 = benchmark_input_signal(spec)
        u2 = u1 + 10.0
        t1 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                      input_signal=u1, seed=9)
        t2 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                      input_signal=u2, seed=9)
        assert np.array_equal(t1.ws, t2.ws) and np.array_equal(t1.vs, t2.vs)
        design = build_design(spec.model, spec.structure, 2, UNKNOWN_INPUT)
        s1, s2 = design.with_data(t1), design.with_data(t2)
        for k in range(0, 49, 7):
            b1 = window_residue(s1, t1, k)
            b2 = window_residue(s2, t2, k)
            scale = 1 + np.max(np.abs(b1))
            assert np.max(np.abs(b1 - b2)) < 1e-9 * scale

    def test_dual_path_oracle_unknown_input(self):
        spec = preset("unobs-unknown-input", tau=50)
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=1)
        sys = build_stacked_system(spec.model, spec.structure, traj, 2, UNKNOWN_INPUT)
        for k in range(0, 49, 5):
            ztilde = window_residue(sys, traj, k)
            direct = window_arrays(sys, k).ac @ window_noises(traj, k, 2)
            scale = 1 + np.max(np.abs(direct))
            assert np.max(np.abs(ztilde - direct)) < 1e-9 * scale

    def test_equal_g_e_kills_state_noise_columns(self, ge_equal_model,
                                                 ge_equal_structure):
        w = window_arrays(build_design(ge_equal_model, ge_equal_structure, 2,
                                       UNKNOWN_INPUT), 0)
        # Q enters through the first basis column only; it must vanish
        assert np.max(np.abs(w.design_block[:, 0])) < 1e-10
        assert np.max(np.abs(w.design_block[:, 1])) > 1e-6


class TestRegressionRow:
    def test_scalar_residue(self):
        spec = preset("obs-ltv", tau=30)
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=3)
        sys = build_stacked_system(spec.model, spec.structure, traj, 2)
        ztilde = window_residue(sys, traj, 0)
        w = window_arrays(sys, 0)
        assert w.n_a == 1
        obs = sys.obs[sys.row_offsets[0]:sys.row_offsets[1]]
        assert obs.shape == (1,)
        assert np.allclose(obs[0], ztilde[0] ** 2)
        assert w.design_block.shape == (1, 2)

    def test_unbiasedness_oracle(self, rng):
        """Mean of obs over noise draws matches design @ alpha."""
        spec = preset("unobs-unknown-input", tau=30)
        w = window_arrays(build_design(spec.model, spec.structure, 2, UNKNOWN_INPUT), 4)
        q, r = np.array([[1.0, 1, 0], [1, 2, 1], [0, 1, 2.0]]), np.array(
            [[2.0, 0, 1], [0, 4, 1], [1, 1, 2.0]])
        n_draws = 10000
        wn = rng.standard_normal((n_draws, 3)) @ np.linalg.cholesky(q).T
        v = rng.standard_normal((n_draws, 6)) @ np.kron(
            np.eye(2), np.linalg.cholesky(r)).T
        zt = np.hstack([wn, v]) @ w.ac.T
        samples = zt[:, w.sel_i] * zt[:, w.sel_j]
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_draws)
        pred = w.design_block @ np.array([1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
        assert np.all(np.abs(mean - pred) <= 4.0 * se)

    def test_design_consistent_with_noisemap(self):
        spec = preset("obs-ltv", tau=20)
        w = window_arrays(build_design(spec.model, spec.structure, 2, KNOWN_INPUT), 0)
        ups = defining_replication(spec.structure, 2)
        assert np.allclose(w.design_block, noise_map(w.ac) @ ups)

    def test_m_transformation_property(self, rng):
        """A nonsingular M on the residue maps the row through Xi M^2 Psi."""
        spec = preset("clock-ensemble", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init, seed=8)
        k, L = 2, 10
        sys = build_stacked_system(spec.model, spec.structure, traj, L)
        w = window_arrays(sys, k)
        ztilde = window_residue(sys, traj, k)
        ups = defining_replication(spec.structure, L)
        obs, design, noisemap = regression_rows(ztilde, w.ac, ups)
        # the rows rebuilt here are the system's own rows for window k
        assert np.array_equal(obs, sys.obs[sys.row_offsets[k]:sys.row_offsets[k + 1]])
        # the paper's form Xi (AC kron AC), exact with a 0/1 Xi
        assert np.array_equal(noisemap, unification_matrix(w.n_a) @ np.kron(w.ac, w.ac))
        assert np.array_equal(design, w.design_block)

        n_a = w.n_a
        m_mat = rng.standard_normal((n_a, n_a)) + 0.5 * np.eye(n_a)
        obs_t, design_t, noisemap_t = regression_rows(m_mat @ ztilde,
                                                      m_mat @ w.ac, ups)

        xi = unification_matrix(n_a)
        psi = replication_matrix(n_a)
        t_map = xi @ np.kron(m_mat, m_mat) @ psi
        assert np.linalg.matrix_rank(t_map) == t_map.shape[0]
        scale = np.max(np.abs(obs_t)) + 1
        assert np.max(np.abs(obs_t - t_map @ obs)) < 1e-9 * scale
        dscale = np.max(np.abs(design_t)) + 1
        assert np.max(np.abs(design_t - t_map @ design)) < 1e-9 * dscale
        # noisemap agrees as an operator on symmetric-vec vectors
        s = rng.standard_normal((w.ac.shape[1], w.ac.shape[1]))
        y = (s + s.T).ravel(order="F")
        nscale = np.max(np.abs(noisemap_t @ y)) + 1
        assert np.max(np.abs(noisemap_t @ y - t_map @ (noisemap @ y))) \
            < 1e-9 * nscale

    def test_initial_state_invariance(self):
        """Residues do not depend on the initial state, only on the noises."""
        spec = preset("obs-ltv", tau=40)
        u = benchmark_input_signal(spec)
        init_b = InitialCondition(mean=np.full(1, 50.0), cov=np.eye(1))
        t1 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                      input_signal=u, seed=21)
        t2 = simulate(spec.model, spec.structure, spec.alpha_true, init_b,
                      input_signal=u, seed=21)
        assert np.array_equal(t1.ws, t2.ws)
        design = build_design(spec.model, spec.structure, 2, KNOWN_INPUT)
        s1, s2 = design.with_data(t1), design.with_data(t2)
        for k in range(0, 39, 4):
            b1 = window_residue(s1, t1, k)
            b2 = window_residue(s2, t2, k)
            scale = 1 + np.max(np.abs(b1))
            assert np.max(np.abs(b1 - b2)) < 1e-9 * scale


def residue_deviation(sys0, data1, data2):
    """Largest residue difference between two data sets over all windows,
    relative to 1 + the largest stacked measurement."""
    sys1, sys2 = sys0.with_data(data1), sys0.with_data(data2)
    worst = 0.0
    for k in range(sys0.n_windows):
        r1, r2 = window_residue(sys1, data1, k), window_residue(sys2, data2, k)
        z1 = np.concatenate(data1.zs[k:k + sys0.L], axis=None)
        z2 = np.concatenate(data2.zs[k:k + sys0.L], axis=None)
        scale = 1.0 + max(np.max(np.abs(z1), initial=0.0), np.max(np.abs(z2), initial=0.0))
        worst = max(worst, np.max(np.abs(r1 - r2), initial=0.0) / scale)
    return worst


@given(window_cases(), st.integers(0, 2**32 - 1))
def test_residues_invariant_to_initial_state(case, seed):
    """The annihilator removes the state: two initial conditions, same
    noises, same residues (either input mode, with a known input)."""
    model, structure, L, mode = case
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        return
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((model.tau + 1, int(model.n_u_steps()[0])))
    inits = [InitialCondition.default(model.n_x),
             InitialCondition(mean=rng.uniform(-50.0, 50.0, model.n_x),
                              cov=4.0 * np.eye(model.n_x))]
    data = [simulate(model, structure, [1.0, 0.5], init, input_signal=u, seed=seed)
            for init in inits]
    assert residue_deviation(sys0, *data) < 1e-9


@given(window_cases(), st.integers(0, 2**32 - 1))
def test_residues_invariant_to_unknown_input(case, seed):
    """In unknown-input mode the annihilator also removes the input: two
    input signals, same noises, same residues, with each run's input
    given to the design, which does not read it."""
    model, structure, L, _ = case
    try:
        sys0 = build_design(model, structure, L, UNKNOWN_INPUT)
    except NoAnnihilator:
        return
    rng = np.random.default_rng(seed)
    shape = (model.tau + 1, int(model.n_u_steps()[0]))
    data = [simulate(model, structure, [1.0, 0.5], input_signal=u, seed=seed)
            for u in (rng.standard_normal(shape), rng.uniform(-50.0, 50.0, shape))]
    for d in data:
        assert np.array_equal(sys0.residues(d.z[None], d.u[None]), sys0.residues(d.z[None]))
    assert residue_deviation(sys0, *data) < 1e-9
