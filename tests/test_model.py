import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, strategies as st

from mdmest import (
    DataError,
    InitialCondition,
    LtvModel,
    NoAnnihilator,
    NoiseStructure,
    NotPositiveSemidefinite,
    RankDeficientDesign,
    ValidationError,
    assemble_qr,
    build_design,
    defining_replication,
    ordinary_estimates,
    ordinary_mdm,
    preset,
    simulate,
    simulate_runs,
    validate,
    weighted_estimates,
    weighted_pipeline,
    window_noise_covariance,
)
from mdmest import io
from mdmest.benchmarks import benchmark_input_signal
from mdmest.linalg import block_diag
from mdmest.model import MatrixSequence, MeasurementData, Trajectory, psd_factor
import scipy.linalg

from test_geometry import bitwise_equal, layout, window_cases
from test_residue import window_residue

from conftest import vec, window_arrays


def ncv_structure(ts=2.0):
    """Nearly-constant-velocity structure: one Q shape, three R elements."""
    zero = np.zeros((2, 2))
    bq1 = np.array([[ts ** 3 / 3, ts ** 2 / 2], [ts ** 2 / 2, ts]])
    return NoiseStructure.from_pairs([
        (bq1, zero),
        (np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]])),
        (np.zeros((2, 2)), np.array([[0.0, 1.0], [1.0, 0.0]])),
        (np.zeros((2, 2)), np.array([[0.0, 0.0], [0.0, 1.0]])),
    ])


class TestAssembleQr:
    def test_ncv_weights(self):
        ts = 2.0
        s = ncv_structure(ts)
        sigma2, r1, r12, r2 = 3.0, 1.0, 0.25, 2.0
        q, r = assemble_qr(s, [sigma2, r1, r12, r2])
        assert np.allclose(q, sigma2 * np.array(
            [[ts ** 3 / 3, ts ** 2 / 2], [ts ** 2 / 2, ts]]))
        assert np.allclose(r, [[r1, r12], [r12, r2]])

    def test_zero_alpha(self):
        s = ncv_structure()
        q, r = assemble_qr(s, np.zeros(4))
        assert np.array_equal(q, np.zeros((2, 2)))
        assert np.array_equal(r, np.zeros((2, 2)))

    def test_unknown_input_benchmark_values(self):
        spec = preset("unobs-unknown-input", tau=10)
        q, r = assemble_qr(spec.structure, [1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
        assert np.array_equal(q, [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        assert np.array_equal(r, [[2.0, 0.0, 1.0], [0.0, 4.0, 1.0], [1.0, 1.0, 2.0]])

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            assemble_qr(ncv_structure(), [1.0, 2.0])

    def test_linear_in_alpha(self):
        s = ncv_structure()
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        qa, ra = assemble_qr(s, a)
        qb, rb = assemble_qr(s, b)
        qs, rs = assemble_qr(s, a + b)
        assert np.array_equal(qs, qa + qb)
        assert np.array_equal(rs, ra + rb)


class TestDefiningReplication:
    def test_window_one_has_only_r_blocks(self, scalar_structure):
        ups = defining_replication(scalar_structure, 1)
        # n_eps = n_v = 1; columns are vec(BR_i)
        assert ups.shape == (1, 2)
        assert np.array_equal(ups, [[0.0, 1.0]])

    def test_scalar_window_two(self, scalar_structure):
        ups = defining_replication(scalar_structure, 2)
        assert ups.shape == (9, 2)
        # 3x3 blkdiag(Q, R, R): Q at vec index 0, R at indices 4 and 8
        assert np.array_equal(ups[:, 0], np.eye(9)[:, 0] * 0 + np.array(
            [1, 0, 0, 0, 0, 0, 0, 0, 0.0]))
        assert np.array_equal(ups[:, 1], np.array([0, 0, 0, 0, 1, 0, 0, 0, 1.0]))

    def test_matches_blkdiag_assembly(self):
        spec = preset("unobs-unknown-input", tau=10)
        alpha = np.array([1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
        l_win = 2
        ups = defining_replication(spec.structure, l_win)
        q, r = assemble_qr(spec.structure, alpha)
        direct = vec(scipy.linalg.block_diag(
            np.kron(np.eye(l_win - 1), q), np.kron(np.eye(l_win), r)))
        assert np.allclose(ups @ alpha, direct)

    @pytest.mark.parametrize("L", [0, -1])
    def test_window_length_below_one_is_rejected(self, scalar_structure, L):
        with pytest.raises(ValueError, match="^window length L must be >= 1$"):
            defining_replication(scalar_structure, L)

    def test_linear_in_alpha(self, scalar_structure, rng):
        ups = defining_replication(scalar_structure, 3)
        a = rng.standard_normal(2)
        b = rng.standard_normal(2)
        assert np.allclose(ups @ (a + b), ups @ a + ups @ b)


ENTRY = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.5e-300, -3e300, np.inf, -np.inf, np.nan])


@st.composite
def replication_cases(draw):
    """A structure of 1-3 pairs with 0-3 by 0-3 BQ_i and BR_i of signed
    zeros, small and large values and non-finite ones, and an L of 1-6."""
    n_alpha, n_w, n_v = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    pairs = [tuple(np.array(draw(st.lists(ENTRY, min_size=n * n, max_size=n * n)),
                            dtype=float).reshape(n, n) for n in (n_w, n_v))
             for _ in range(n_alpha)]
    return NoiseStructure.from_pairs(pairs), draw(st.integers(1, 6))


@pytest.mark.bitwise
@given(replication_cases())
def test_defining_replication_is_the_kron_assembly(case):
    """Each column is bit for bit vec(blkdiag(I_{L-1} kron BQ_i, I_L kron BR_i))
    as np.kron forms it (0 * b gives -0.0 for b < 0 and NaN for an infinite
    b), in the same memory layout."""
    structure, L = case
    with np.errstate(invalid="ignore"):
        want = np.column_stack([
            vec(block_diag(np.kron(np.eye(L - 1), bq), np.kron(np.eye(L), br)))
            for bq, br in zip(structure.bq, structure.br)])
        got = defining_replication(structure, L)
    assert bitwise_equal(got, want)
    assert got.size == 0 or layout(got) == layout(want)


@st.composite
def noise_stacks(draw):
    """Stacks of 1-3 q (n_w x n_w) and r (n_v x n_v) of ``ENTRY`` values,
    n_w and n_v in 0..3, and an L of 1-6."""
    m, n_w, n_v = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    q, r = (np.array(draw(st.lists(ENTRY, min_size=m * n * n, max_size=m * n * n)),
                     dtype=float).reshape(m, n, n) for n in (n_w, n_v))
    return q, r, draw(st.integers(1, 6))


@pytest.mark.bitwise
@given(noise_stacks())
def test_window_noise_covariance_is_the_shifted_kron_assembly(case):
    """Each lag j < L is bit for bit blkdiag(S_j kron q_i, S_j kron r_i) as
    np.kron forms it, S_j = np.eye(copies, k=-j), per stack entry."""
    q, r, L = case
    for j in range(L):
        with np.errstate(invalid="ignore"):
            got = window_noise_covariance(q, r, L, j)
            want = np.stack([block_diag(np.kron(np.eye(L - 1, k=-j), qi),
                                        np.kron(np.eye(L, k=-j), ri))
                             for qi, ri in zip(q, r)])
        assert bitwise_equal(got, want)


FINITE = st.floats(-1e3, 1e3, allow_subnormal=False)


@pytest.mark.bitwise
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.integers(1, 6),
       st.data())
def test_upsilon_alpha_is_the_lag_zero_covariance(n_alpha, n_w, n_v, L, data):
    """Upsilon alpha is vec C_0 at Q(alpha), R(alpha): the regression and
    the weight's lag crosses read one window covariance."""
    def matrix(n):
        return np.array(data.draw(st.lists(FINITE, min_size=n * n, max_size=n * n)),
                        dtype=float).reshape(n, n)

    structure = NoiseStructure.from_pairs([(matrix(n_w), matrix(n_v))
                                           for _ in range(n_alpha)])
    alpha = np.array(data.draw(st.lists(FINITE, min_size=n_alpha, max_size=n_alpha)))
    ups = defining_replication(structure, L)
    q, r = assemble_qr(structure, alpha)
    want = vec(window_noise_covariance(q[None], r[None], L)[0])
    assert np.all(np.abs(ups @ alpha - want) <= 1e-14 * (np.abs(ups) @ np.abs(alpha)))


@pytest.mark.parametrize("L, j, match", [
    (0, 0, "^window length L must be >= 1$"),
    (-1, 0, "^window length L must be >= 1$"),
    (3, 3, r"^lag j=3 is outside 0\.\.2$"),
    (3, -1, r"^lag j=-1 is outside 0\.\.2$"),
    (1, 1, r"^lag j=1 is outside 0\.\.0$"),
])
def test_window_noise_covariance_rejects_window_and_lag(L, j, match):
    with pytest.raises(ValueError, match=match):
        window_noise_covariance(np.eye(2)[None], np.eye(1)[None], L, j)


class TestValidate:
    def test_benchmark_model_is_clean(self):
        spec = preset("obs-ltv", tau=20)
        assert validate(spec.model, spec.structure).ok

    def test_wrong_h_shape_names_step(self):
        model = LtvModel.create(
            n_x=2, n_w=2, n_v=1, tau=1,
            F=np.eye(2), G=None, E=np.eye(2),
            H=[np.ones((1, 2)), np.ones((1, 3))],
            D=np.ones((1, 1)))
        report = validate(model, NoiseStructure.from_pairs(
            [(np.eye(2), np.zeros((1, 1))), (np.zeros((2, 2)), np.ones((1, 1)))]))
        assert any("H_1" in f for f in report.findings)

    def test_wrong_h_sequence_length_is_a_finding(self):
        """An H sequence of neither 1 nor tau+1 entries beside a full D
        sequence is reported, not a broadcasting error (a model built
        directly; ``LtvModel.create`` rejects such a sequence first)."""
        ok = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=3, F=np.eye(1), G=None,
                             E=np.eye(1), H=np.eye(1), D=[np.eye(1)] * 4)
        model = LtvModel(n_x=1, n_w=1, n_v=1, tau=3, F=ok.F, G=ok.G, E=ok.E,
                         H=MatrixSequence([np.eye(1)] * 2), D=ok.D)
        structure = NoiseStructure.from_pairs(
            [(np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))])
        findings = ["H sequence has 2 entries, expected tau+1"]
        assert validate(model, structure).findings == findings
        with pytest.raises(ValidationError) as err:
            simulate(model, structure, np.ones(2), seed=0)
        assert err.value.findings == findings

    def test_asymmetric_basis_flagged(self):
        s = NoiseStructure.from_pairs(
            [(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((1, 1)))])
        model = LtvModel.create(n_x=1, n_w=2, n_v=1, tau=1,
                                F=np.eye(1), G=None, E=np.ones((1, 2)),
                                H=np.eye(1), D=np.eye(1))
        report = validate(model, s)
        assert any("symmetric" in f for f in report.findings)

    ONE, ZERO, EYE2 = np.eye(1), np.zeros((1, 1)), np.eye(2)

    @pytest.mark.parametrize("n_w, pairs, findings", [
        (1, [(EYE2, ZERO), (ZERO, ONE)],
         ["BQ^(2) has shape (1, 1), expected (2, 2)",
          "structure BQ dimension does not match model n_w"]),
        (1, [(ONE, ZERO), (ZERO, [[1.0, 2.0]])],
         ["BR^(2) has shape (1, 2), expected (1, 1)"]),
        (1, [(EYE2, ZERO), (np.zeros((2, 2)), ONE)],
         ["structure BQ dimension does not match model n_w"]),
        (1, [(ONE, EYE2), (ZERO, np.zeros((2, 2)))],
         ["structure BR dimension does not match model n_v"]),
        (1, [(ONE, [[np.inf]]), (ZERO, ONE)],
         ["BR^(1) contains non-finite entries"]),
        (1, [(ONE, ZERO), ([[np.nan]], ONE)],
         ["BQ^(2) contains non-finite entries"]),
        (2, [([[1.0, np.nan], [0.0, 1.0]], ZERO)],
         ["BQ^(1) is not symmetric", "BQ^(1) contains non-finite entries"]),
        (2, [([[1.0, np.nan], [np.nan, 1.0]], ZERO)],
         ["BQ^(1) contains non-finite entries"]),
    ])
    def test_basis_findings(self, n_w, pairs, findings):
        """A basis matrix of the wrong shape or dimension, or with an entry
        that is not finite, is named; a NaN basis matrix is asymmetric only
        where its transpose differs, NaN against a number."""
        model = LtvModel.create(n_x=1, n_w=n_w, n_v=1, tau=3, F=np.eye(1), G=None,
                                E=np.ones((1, n_w)), H=np.eye(1), D=np.eye(1))
        assert validate(model, NoiseStructure.from_pairs(pairs)).findings == findings


class TestNoiseStructure:
    PAIRS = [(np.eye(1), np.zeros((1, 1))), (np.zeros((1, 1)), np.eye(1))]

    @pytest.mark.parametrize("wrap", [
        lambda pairs: zip(*zip(*pairs)),
        lambda pairs: (p for p in pairs),
    ], ids=["zip", "generator"])
    def test_from_pairs_reads_an_iterator_once(self, wrap):
        """A zip or a generator of pairs gives the structure the list gives."""
        got = NoiseStructure.from_pairs(wrap(self.PAIRS))
        want = NoiseStructure.from_pairs(self.PAIRS)
        assert got.n_alpha == want.n_alpha == 2
        for a, b in zip(got.bq + got.br, want.bq + want.br):
            assert np.array_equal(a, b)

    def test_no_pairs_refused(self):
        with pytest.raises(ValidationError, match="at least one basis pair"):
            NoiseStructure.from_pairs(iter([]))


class TestSimulate:
    def test_noise_free_is_deterministic(self, scalar_lti_model, scalar_structure):
        init = InitialCondition(mean=np.array([2.0]), cov=np.zeros((1, 1)))
        traj = simulate(scalar_lti_model, scalar_structure, np.zeros(2), init,
                        seed=4)
        ks = np.arange(scalar_lti_model.tau + 1)
        assert np.allclose(traj.xs[:, 0], 2.0 * 0.9 ** ks)
        assert np.allclose(np.array(traj.zs)[:, 0], 2.0 * 0.9 ** ks)

    def test_fixed_seed_reproducible(self, scalar_lti_model, scalar_structure):
        t1 = simulate(scalar_lti_model, scalar_structure, [2.0, 1.0], seed=7)
        t2 = simulate(scalar_lti_model, scalar_structure, [2.0, 1.0], seed=7)
        assert np.array_equal(t1.xs, t2.xs)
        assert np.array_equal(np.array(t1.zs), np.array(t2.zs))

    def test_state_noise_sample_variance(self):
        spec = preset("obs-ltv", tau=100000)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        seed=11)
        n = traj.ws.shape[0]
        var = traj.ws.var(ddof=1)
        se = 2.0 * np.sqrt(2.0 / (n - 1))  # std of a chi-square variance estimate
        assert abs(var - 2.0) < 3.0 * se

    def test_recursion_replay(self):
        spec = preset("unobs-unknown-input", tau=100)
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=3)
        model = spec.model
        scale = np.max(np.abs(traj.xs))
        for k in range(model.tau):
            x_next = (model.F[k] @ traj.xs[k] + model.G[k] @ traj.us[k]
                      + model.E[k] @ traj.ws[k])
            assert np.max(np.abs(traj.xs[k + 1] - x_next)) <= 1e-12 * scale
        for k in range(model.tau + 1):
            z = model.H[k] @ traj.xs[k] + model.D[k] @ traj.vs[k]
            assert np.max(np.abs(traj.zs[k] - z)) <= 1e-12 * scale

    def test_indefinite_q_rejected(self, scalar_lti_model, scalar_structure):
        """Q = -1, and R = -1e-9, below the rank rule's -1e-10 floor."""
        for alpha in ([-1.0, 1.0], [1.0, -1e-9]):
            with pytest.raises(NotPositiveSemidefinite):
                simulate(scalar_lti_model, scalar_structure, alpha, seed=0)

    @pytest.mark.parametrize("case", ["d-rows-differ-from-h", "e-rows-differ-from-n_x"])
    def test_inconsistent_shapes_rejected(self, case, scalar_structure):
        """simulate refuses a model validate refuses, with its findings."""
        if case == "d-rows-differ-from-h":
            model = LtvModel.create(
                n_x=1, n_w=1, n_v=1, tau=2, F=[[0.9]], G=None, E=[[1.0]],
                H=[np.ones((1, 1)), np.ones((2, 1)), np.ones((1, 1))],
                D=[np.ones((2, 1)), np.ones((1, 1)), np.ones((1, 1))])
        else:
            # a 1x1 E would broadcast E w over both states
            model = LtvModel.create(n_x=2, n_w=1, n_v=1, tau=5, F=0.9 * np.eye(2),
                                    G=None, E=[[1.0]], H=[[1.0, 0.0]], D=[[1.0]])
        findings = validate(model, scalar_structure).findings
        assert findings
        with pytest.raises(ValidationError) as err:
            simulate(model, scalar_structure, [2.0, 1.0], seed=0)
        assert err.value.findings == findings


class TestSimulateInitAndAlphaChecks:
    """A non-finite alpha_true or initial condition, or an initial condition
    of the wrong shape, is a ValidationError naming it."""

    @pytest.fixture
    def spec(self):
        return preset("unobs-unknown-input", tau=20)

    def run(self, spec, alpha=None, mean=None, cov=None):
        init = InitialCondition(mean=spec.init.mean if mean is None else mean,
                                cov=spec.init.cov if cov is None else cov)
        return simulate(spec.model, spec.structure,
                        spec.alpha_true if alpha is None else alpha, init, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_alpha(self, spec, bad):
        alpha = spec.alpha_true.copy()
        alpha[3] = bad
        with pytest.raises(ValidationError) as err:
            self.run(spec, alpha=alpha)
        assert err.value.findings == ["alpha_true contains non-finite entries"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_init(self, spec, bad):
        mean = np.ones(3)
        mean[1] = bad
        cov = np.eye(3)
        cov[2, 0] = bad
        with pytest.raises(ValidationError) as err:
            self.run(spec, mean=mean)
        assert err.value.findings == ["init.mean contains non-finite entries"]
        with pytest.raises(ValidationError) as err:
            self.run(spec, cov=cov)
        assert err.value.findings == ["init.cov contains non-finite entries"]

    def test_wrongly_shaped_init(self, spec):
        # a length-1 mean would otherwise broadcast over the state
        with pytest.raises(ValidationError) as err:
            self.run(spec, mean=np.ones(1))
        assert err.value.findings == ["init.mean has shape (1,), expected (3,)"]
        with pytest.raises(ValidationError) as err:
            self.run(spec, mean=np.ones((3, 1)), cov=np.eye(2))
        assert err.value.findings == ["init.mean has shape (3, 1), expected (3,)",
                                      "init.cov has shape (2, 2), expected (3, 3)"]


class TestSimulateInputChecks:
    """A bad input signal is a ValidationError naming the step."""

    @pytest.fixture
    def spec(self):
        return preset("obs-ltv", tau=50)

    def run(self, spec, u):
        return simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=u, seed=0)

    def test_too_few_steps(self, spec):
        with pytest.raises(ValidationError, match=r"has 30 steps, the model needs "
                           r"tau\+1 = 51; step k=30 is missing"):
            self.run(spec, np.ones((30, 1)))

    def test_wrong_step_length(self, spec):
        with pytest.raises(ValidationError,
                           match="step k=0 has length 2, model expects n_u = 1"):
            self.run(spec, np.ones((51, 2)))

    def test_wrong_step_length_in_a_sequence(self, spec):
        u = [np.ones(1)] * 51
        u[7] = np.ones(3)
        with pytest.raises(ValidationError,
                           match="step k=7 has length 3, model expects n_u = 1"):
            self.run(spec, u)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_step(self, spec, bad):
        u = benchmark_input_signal(spec).copy()
        u[17, 0] = bad
        with pytest.raises(ValidationError, match="step k=17 is not finite"):
            self.run(spec, u)

    def test_not_one_vector_per_step(self, spec):
        with pytest.raises(ValidationError, match="1-D or 2-D array, got 3-D"):
            self.run(spec, np.ones((51, 1, 1)))

    def test_forms_of_one_signal_agree(self, spec):
        u = benchmark_input_signal(spec)
        ref = self.run(spec, u)
        for other in (u[:, 0], list(u), [float(v) for v in u[:, 0]],
                      np.vstack([u, np.ones((5, 1))])):
            traj = self.run(spec, other)
            assert bitwise_equal(traj.xs, ref.xs)
            assert all(bitwise_equal(a, b) for a, b in zip(traj.us, ref.us))


@pytest.mark.parametrize("args, key", [
    ((np.zeros(3), [1, 1]), "z"),                       # lengths sum to 2, not 3
    ((np.zeros(3), [4, -1]), "z"),                      # a negative length
    ((np.zeros(3), [[1, 2]]), "z"),                     # lengths that are not 1-D
    ((np.zeros(2), [1, 1], np.zeros(2), [3, -1]), "u"),
    ((np.zeros(2), [1, 1], np.zeros(2), [1, 0]), "u"),
])
def test_measurement_data_refuses_record_lengths(args, key):
    with pytest.raises(DataError, match=f"'{key}' must be 1-D and 'n_{key}' its record "
                                        "lengths: non-negative integers summing to"):
        MeasurementData(*args)


@st.composite
def matrix_sequences(draw):
    """(kind, matrices, value): the matrices of a constant, uniform or
    ragged sequence (one, or one per step; a ragged one has two shapes or
    more), and ``value`` giving them as a list, a tuple or, when uniform, a
    3-D array (a constant one as a 2-D array, nested lists or nested
    tuples).  Some entries may be NaN or inf."""
    kind = draw(st.sampled_from(["constant", "uniform", "ragged"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = 1 if kind == "constant" else draw(st.integers(1 + (kind == "ragged"), 6))
    shape = st.tuples(st.integers(1, 3), st.integers(0, 3))
    shapes = ([draw(shape)] * steps if kind != "ragged"
              else draw(st.lists(shape, min_size=steps, max_size=steps)))
    if kind == "ragged" and len(set(shapes)) == 1:
        shapes[-1] = (shapes[0][0] % 3 + 1, shapes[0][1])
    mats = [rng.standard_normal(s) for s in shapes]
    m = mats[draw(st.integers(0, steps - 1))]
    if m.size and draw(st.booleans()):
        m.flat[draw(st.integers(0, m.size - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    if kind == "constant":
        forms = [mats[0], mats[0].tolist(), tuple(map(tuple, mats[0].tolist()))]
    else:
        forms = [list(mats), tuple(mats)] + ([np.stack(mats)] if kind == "uniform" else [])
    return kind, mats, draw(st.sampled_from(forms))


@pytest.mark.bitwise
@given(matrix_sequences(), st.data())
def test_matrix_sequence_reads_back_its_matrices(case, data):
    """A MatrixSequence gives back, bit for bit, the matrices it was made
    from, in every form it takes, and a model file round-trips them."""
    kind, mats, value = case
    tau = len(mats) - 1 if kind != "constant" else data.draw(st.integers(0, 5))
    seq = MatrixSequence(value, tau)
    assert seq.is_constant == (kind == "constant")
    assert len(seq) == len(mats)
    assert seq.shapes.tolist() == [list(m.shape) for m in mats]
    assert seq.all_finite() == all(np.isfinite(m).all() for m in mats)
    at = mats * (tau + 1) if kind == "constant" else mats  # the matrix at each k
    assert all(bitwise_equal(seq[k], m) for k, m in enumerate(at))
    for s in {m.shape for m in mats}:
        same = [k for k, m in enumerate(at) if m.shape == s]
        ks = data.draw(st.lists(st.sampled_from(same), min_size=1, max_size=8))
        assert bitwise_equal(seq.take(ks), np.stack([at[k] for k in ks]))
    model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=tau, F=seq, E=np.eye(1),
                            H=np.eye(1), D=np.eye(1))
    structure = NoiseStructure.from_pairs([(np.eye(1), np.eye(1))])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        io.save_model(path, model, structure)
        back = io.load_model(path).model.F
    assert back.is_constant == seq.is_constant
    assert bitwise_equal(back.shapes, seq.shapes)
    assert all(bitwise_equal(back[k], m) for k, m in enumerate(at))


def reference_simulate(model, structure, alpha_true, init=None, input_signal=None,
                       seed=0):
    """``simulate`` written step by step: every product inside the loop."""
    if init is None:
        init = InitialCondition.default(model.n_x)
    q, r = assemble_qr(structure, alpha_true)
    s_q, s_r = psd_factor(q), psd_factor(r)
    s_x = psd_factor(np.asarray(init.cov, dtype=float))
    tau = model.tau
    rng = np.random.default_rng(seed)
    x0 = np.asarray(init.mean, dtype=float) + s_x @ rng.standard_normal(model.n_x)
    noise = rng.standard_normal((tau + 1, model.n_v + model.n_w))
    vs = noise[:, : model.n_v] @ s_r.T
    ws = noise[: tau, model.n_v:] @ s_q.T
    us = None
    if input_signal is not None:
        us = [np.atleast_1d(np.asarray(input_signal[k], dtype=float))
              for k in range(tau + 1)]
    xs = np.empty((tau + 1, model.n_x))
    xs[0] = x0
    for k in range(tau):
        x_next = model.F[k] @ xs[k] + model.E[k] @ ws[k]
        if us is not None and model.G[k].shape[1] > 0:
            x_next = x_next + model.G[k] @ us[k]
        xs[k + 1] = x_next
    zs = [model.H[k] @ xs[k] + model.D[k] @ vs[k] for k in range(tau + 1)]
    data = MeasurementData.from_records(zs, us)
    return Trajectory(data.z, data.n_z, data.u, data.n_u, xs=xs, ws=ws, vs=vs)


@st.composite
def simulation_cases(draw):
    """A ``window_cases`` model, an input signal for it (a 2-D array or a
    list of per-step vectors), a noise level and a seed."""
    model, structure, L, mode = draw(window_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal((model.tau + 1, int(model.n_u_steps()[0])))
    if draw(st.booleans()):
        u = list(u)
    alpha = rng.uniform(0.1, 2.0, size=structure.n_alpha)
    return model, structure, L, mode, alpha, u, draw(st.integers(0, 2**32 - 1))


@pytest.mark.bitwise
@given(simulation_cases())
def test_simulate_is_bitwise_per_step(case):
    """With and without the input, the stacked products give the per-step
    trajectory bit for bit, and ``with_data`` gives the per-window residue
    formula bit for bit."""
    model, structure, L, mode, alpha, u, seed = case
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        sys0 = None
    for signal in (None, u):
        traj = simulate(model, structure, alpha, input_signal=signal, seed=seed)
        ref = reference_simulate(model, structure, alpha, input_signal=signal, seed=seed)
        for name in ("xs", "ws", "vs"):
            assert bitwise_equal(getattr(traj, name), getattr(ref, name)), name
        for name in ("zs", "us"):
            got, want = getattr(traj, name), getattr(ref, name)
            assert (got is None) == (want is None), name
            if got is not None:
                assert len(got) == len(want), name
                assert all(bitwise_equal(a, b) for a, b in zip(got, want)), name
        if sys0 is None:
            continue
        sys1 = sys0.with_data(traj)
        for k in range(sys1.n_windows):
            w = window_arrays(sys1, k)
            zt = window_residue(sys1, traj, k)
            rows = sys1.obs[sys1.row_offsets[k]:sys1.row_offsets[k + 1]]
            assert bitwise_equal(rows, zt[w.sel_i] * zt[w.sel_j]), k


@st.composite
def batched_simulation_cases(draw):
    """A ``simulation_cases`` model, window length, mode and input (the
    input width may also change with k: an LTV G of per-step widths 0..2,
    with a signal to match), and one to four seeds."""
    model, structure, L, mode, alpha, u, _ = draw(simulation_cases())
    if not model.G.is_constant and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n_u = [draw(st.integers(0, 2)) for _ in range(model.tau + 1)]
        model = replace(model, G=MatrixSequence(
            [rng.standard_normal((model.n_x, n)) for n in n_u], model.tau))
        u = [rng.standard_normal(n) for n in n_u]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    return model, structure, L, mode, alpha, u, seeds


def assert_runs_are_bitwise_per_seed(model, structure, alpha, u, seeds):
    """Runs simulated together give, seed by seed, the step-by-step
    trajectory bit for bit, with and without the input ``u``."""
    for signal in (None, u):
        runs = list(simulate_runs(model, structure, alpha, input_signal=signal,
                                  seeds=seeds))
        assert len(runs) == len(seeds)
        for traj, seed in zip(runs, seeds):
            ref = reference_simulate(model, structure, alpha, input_signal=signal,
                                     seed=seed)
            for name in ("xs", "ws", "vs"):
                assert bitwise_equal(getattr(traj, name), getattr(ref, name)), name
            for name in ("zs", "us"):
                got, want = getattr(traj, name), getattr(ref, name)
                assert (got is None) == (want is None), name
                if got is not None:
                    assert len(got) == len(want), name
                    assert all(bitwise_equal(a, b) for a, b in zip(got, want)), name


@pytest.mark.bitwise
@given(batched_simulation_cases())
def test_simulate_runs_is_bitwise_per_seed(case):
    """Several runs simulated together give, seed by seed, the step-by-step
    trajectory bit for bit, with and without the input."""
    model, structure, _, _, alpha, u, seeds = case
    assert_runs_are_bitwise_per_seed(model, structure, alpha, u, seeds)


@pytest.mark.parametrize("n_seeds", [1, 40])
@pytest.mark.parametrize("n_w, n_v, tau", [(0, 2, 6), (2, 0, 6), (0, 2, 0),
                                           (2, 0, 0), (2, 2, 0)])
def test_simulate_runs_is_bitwise_on_shapes_no_case_draws(n_w, n_v, tau, n_seeds):
    """Shapes ``window_cases`` never draws: no state noise (n_w = 0), no
    measurement noise (n_v = 0), no step (tau = 0), and 1 or 40 seeds; an
    LTV two-state model with an input still gives each seed's step-by-step
    trajectory bit for bit."""
    rng = np.random.default_rng(n_w + 3 * n_v + 7 * tau)
    model = LtvModel.create(
        n_x=2, n_w=n_w, n_v=n_v, tau=tau,
        F=[0.5 * rng.standard_normal((2, 2)) for _ in range(tau + 1)],
        G=rng.standard_normal((2, 1)), E=rng.standard_normal((2, n_w)),
        H=[rng.standard_normal((2, 2)) for _ in range(tau + 1)],
        D=rng.standard_normal((2, n_v)))
    structure = NoiseStructure.from_pairs([(np.eye(n_w), np.zeros((n_v, n_v))),
                                           (np.zeros((n_w, n_w)), np.eye(n_v))])
    assert validate(model, structure).ok
    seeds = list(range(5, 5 + n_seeds))
    assert_runs_are_bitwise_per_seed(model, structure, np.array([1.5, 0.5]),
                                     rng.standard_normal((tau + 1, 1)), seeds)


@pytest.mark.parametrize("ragged", [False, True])
def test_simulated_runs_hold_the_records_end_to_end(ragged):
    """``SimulatedRuns.z`` is (runs, sum n_z) and ``u`` (1, sum n_u): the
    records as ``residues`` reads them, also when n_z and n_u change with
    k; each run's trajectory is made of views of the runs' arrays."""
    rng = np.random.default_rng(3)
    tau = 6
    n_z = [1 + k % 2 if ragged else 1 for k in range(tau + 1)]
    n_u = [k % 3 if ragged else 1 for k in range(tau + 1)]
    model = LtvModel.create(
        n_x=2, n_w=2, n_v=2, tau=tau, F=0.5 * np.eye(2),
        G=[rng.standard_normal((2, n)) for n in n_u], E=np.eye(2),
        H=[rng.standard_normal((n, 2)) for n in n_z],
        D=[rng.standard_normal((n, 2)) for n in n_z])
    structure = NoiseStructure.from_pairs([(np.eye(2), np.zeros((2, 2))),
                                           (np.zeros((2, 2)), np.eye(2))])
    u = [rng.standard_normal(n) for n in n_u]
    runs = simulate_runs(model, structure, [1.0, 0.5], input_signal=u, seeds=range(3))
    assert runs.z.shape == (3, sum(n_z))
    assert runs.u.shape == (1, sum(n_u))
    assert np.array_equal(runs.u[0], np.concatenate(u))
    for i, traj in enumerate(runs):
        assert np.array_equal(traj.z, runs.z[i])
        for name in ("z", "u", "xs", "ws", "vs"):
            assert np.shares_memory(getattr(traj, name), getattr(runs, name)), name


@pytest.mark.bitwise
@given(batched_simulation_cases())
def test_run_batched_estimates_are_bitwise_per_run(case):
    """The squared residues of runs simulated together, formed from their
    measurement array by one ``residues`` call, and their ordinary
    estimates, from one ``ordinary_estimates`` call, equal run by run
    ``with_data`` and ``ordinary_mdm`` bit for bit, with and without the
    input."""
    model, structure, L, mode, alpha, u, seeds = case
    try:
        design = build_design(model, structure, L, mode)
    except NoAnnihilator:
        return
    for signal in (None, u):
        runs = simulate_runs(model, structure, alpha, input_signal=signal, seeds=seeds)
        obs = design.residues(runs.z, runs.u)
        assert obs.shape == (len(seeds), design.n_rows)
        try:
            alphas = ordinary_estimates(design, obs)
        except RankDeficientDesign:
            alphas = None
        for r, traj in enumerate(runs):
            one = design.with_data(traj)
            assert bitwise_equal(obs[r], one.obs), r
            if alphas is None:
                with pytest.raises(RankDeficientDesign):
                    ordinary_mdm(one)
            else:
                assert bitwise_equal(alphas[r], ordinary_mdm(one).alpha_hat), r


def assert_weighted_batch_is_bitwise(design, obs, ones):
    """``weighted_estimates`` on the residues ``obs`` of a batch of runs
    equals, run by run, ``weighted_pipeline`` on the runs' systems ``ones``:
    alpha_hat, diag(cov), the first pass and its PSD projection bit for
    bit, and the batch warns of no projection.  A batch that fails raises
    the first failing run's error, with its index as ``run``: the runs
    before it succeed alone and it fails alone, with that text.  Returns
    the branch each run took ("fails" for a failing batch)."""
    failure = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            batch = weighted_estimates(design, obs)
        except Exception as exc:
            failure = exc
    assert not [w for w in caught if "indefinite" in str(w.message)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if failure is not None:
            # a design-level failure (run None) fails every run alike
            first = getattr(failure, "run", None) or 0
            for one in ones[:first]:
                weighted_pipeline(one)
            with pytest.raises(type(failure)) as alone:
                weighted_pipeline(ones[first])
            assert str(alone.value) == str(failure), first
            return ["fails"]
        for r, one in enumerate(ones):
            est = weighted_pipeline(one)
            assert bitwise_equal(est.alpha_hat, batch.alpha_hat[r]), r
            assert bitwise_equal(np.diag(est.cov), np.diag(batch.cov[r])), r
            assert bitwise_equal(np.array(est.diagnostics["eta_projection"]),
                                 batch.projection[r]), r
            assert bitwise_equal(est.diagnostics["alpha_ordinary"],
                                 batch.alpha_ordinary[r]), r
    return list(batch.branch)


@pytest.mark.bitwise
@given(batched_simulation_cases())
def test_run_batched_weighted_is_bitwise_per_run(case):
    """Runs simulated together, their residues formed by one ``residues``
    call and their weighted estimates by one ``weighted_estimates`` call,
    give run by run the bits of ``weighted_pipeline(with_data(...))``,
    on whichever branch each run takes (most of these small random cases
    have a singular weight)."""
    model, structure, L, mode, alpha, u, seeds = case
    try:
        design = build_design(model, structure, L, mode)
    except NoAnnihilator:
        return
    runs = simulate_runs(model, structure, alpha, input_signal=u, seeds=seeds)
    obs = design.residues(runs.z, runs.u)
    ones = [design.with_data(traj) for traj in runs]
    for took in assert_weighted_batch_is_bitwise(design, obs, ones):
        event(took)


def weighted_outcome(call):
    """(None or the error's (type, text, run), projection warnings) of ``call``."""
    outcome = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            call()
        except Exception as exc:
            outcome = (type(exc), str(exc), getattr(exc, "run", None))
    return outcome, sum("indefinite" in str(w.message) for w in caught)


@pytest.mark.bitwise
@given(batched_simulation_cases(), st.data())
def test_weighted_batch_failure_is_the_first_failing_run(case, data):
    """A batch in which one run's squared residues are scaled by 1e160
    (which makes that run fail inside its weighted solve) raises what
    solving the runs one at a time raises first: the same type, text and,
    as ``run``, index (None for a design-level failure); and it warns of a
    projected first pass as often as those one-run solves do, up to and
    including the failing run (``test_run_batched_weighted_is_bitwise_per_run``
    checks the estimates of batches that succeed)."""
    model, structure, L, mode, alpha, u, seeds = case
    try:
        design = build_design(model, structure, L, mode)
    except NoAnnihilator:
        return
    runs = simulate_runs(model, structure, alpha, input_signal=u, seeds=seeds)
    obs = design.residues(runs.z, runs.u)
    obs[data.draw(st.integers(0, len(seeds) - 1), label="scaled run")] *= 1e160
    batch, batch_warned = weighted_outcome(
        lambda: weighted_estimates(design, obs))
    warned = 0
    for r in range(len(seeds)):
        one, one_warned = weighted_outcome(
            lambda: weighted_estimates(design, obs[r:r + 1]))
        warned += one_warned
        if one is not None:
            kind, text, run = one
            assert batch == (kind, text, None if run is None else r)
            event(f"fails: {kind.__name__}, " + ("design-level" if run is None
                                                 else "first run" if r == 0
                                                 else "later run"))
            break
    else:
        assert batch is None
        event("succeeds")
    assert batch_warned == warned


@pytest.mark.parametrize("name, tau, seed, n_runs, branches", [
    ("obs-ltv", 120, 0, 5, {"full-rank"}),
    ("unobs-unknown-input", 60, 0, 5, {"kept-row"}),
    ("clock-ensemble", 20, 1, 2, {"kept-row", "dense"}),
])
def test_run_batched_weighted_is_bitwise_on_the_presets(name, tau, seed, n_runs,
                                                        branches):
    """The same on the three presets, which between them take every
    branch: a full-rank weight (obs-ltv), a singular one solved on its kept
    rows (unobs) and, on the clock, both that and the dense g-inverse."""
    spec = preset(name, tau=tau)
    design = build_design(spec.model, spec.structure, spec.L, spec.mode)
    runs = simulate_runs(spec.model, spec.structure, spec.alpha_true, spec.init,
                         input_signal=benchmark_input_signal(spec),
                         seeds=range(seed, seed + n_runs))
    obs = design.residues(runs.z, runs.u)
    ones = [design.with_data(traj) for traj in runs]
    assert set(assert_weighted_batch_is_bitwise(design, obs, ones)) == branches
