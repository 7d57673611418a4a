"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with the
measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).
Reference statistics for the three stock benchmarks are frozen from the
published experiment tables; tolerances are stated inline.
"""

import time

import numpy as np
import pytest

from mdmest import (
    InitialCondition,
    NoiseStructure,
    UNKNOWN_INPUT,
    build_design,
    build_stacked_system,
    gaussian_eta_covariances,
    ordinary_mdm,
    preset,
    replication_matrix,
    run_mc,
    simulate,
    unification_matrix,
    vec,
    weighted_mdm,
)
from mdmest.benchmarks import benchmark_input_signal

from conftest import eta_band, eta_mean, window_arrays, window_matrices
from test_residue import window_residue

# frozen reference statistics (sample variances of the published MC studies)
OBS_LTV_TRUE = np.array([2.0, 1.0])
OBS_LTV_ORDINARY_VAR = np.array([0.048, 0.015])
OBS_LTV_WEIGHTED_VAR = np.array([0.033, 0.007])
OBS_LTV_WEIGHTED_BIAS = np.array([0.008, 0.002])
EX2_TRUE = np.array([1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
EX2_ORDINARY_VAR = np.array([0.135, 1.045, 0.057, 1.695, 1.574, 1.893])
CLOCK_TRUE = 1e-19 * np.array([6.0, 0.05, 20.0, 0.3, 7.0, 0.04, 80.0, 100.0])
CLOCK_ORDINARY_VAR = np.array([9.785e-38, 2.543e-42, 1.701e-36, 1.830e-41,
                               2.369e-37, 2.670e-42, 2.485e-35, 4.091e-36])


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def timed_mc(spec, method, n_mc):
    t0 = time.perf_counter()
    res = run_mc(spec, method, n_mc=n_mc)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def obs_ltv_ordinary():
    return timed_mc(preset("obs-ltv", tau=1000, seed=0), "ordinary", 500)


@pytest.fixture(scope="module")
def obs_ltv_weighted():
    return timed_mc(preset("obs-ltv", tau=1000, seed=0), "weighted", 500)


@pytest.fixture(scope="module")
def clock_ordinary():
    return timed_mc(preset("clock-ensemble", tau=1000, seed=0), "ordinary", 200)


@pytest.fixture(scope="module")
def ex2_ordinary():
    return timed_mc(preset("unobs-unknown-input", tau=1000, seed=0),
                    "ordinary", 500)


def test_criterion_1_obs_ltv_ordinary(obs_ltv_ordinary):
    res, elapsed = obs_ltv_ordinary
    se = np.sqrt(res.sample_cov_diag / res.n_mc)
    mean_ok = np.all(np.abs(res.sample_mean - OBS_LTV_TRUE) <= 3.0 * se)
    ratio = res.sample_cov_diag / OBS_LTV_ORDINARY_VAR
    var_ok = np.all((ratio >= 1 / 1.5) & (ratio <= 1.5))
    time_ok = elapsed < 120.0
    ok = report(
        "criterion 1 (observable LTV, ordinary)",
        mean_ok and var_ok and time_ok,
        f"mean={np.round(res.sample_mean, 4)} (3se={np.round(3 * se, 4)}), "
        f"var={np.round(res.sample_cov_diag, 4)} ratio={np.round(ratio, 3)}, "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_obs_ltv_weighted(obs_ltv_ordinary, obs_ltv_weighted):
    res_o, _ = obs_ltv_ordinary
    res_w, elapsed = obs_ltv_weighted
    se = np.sqrt(res_w.sample_cov_diag / res_w.n_mc)
    mean_ok = np.all(np.abs(res_w.sample_mean - OBS_LTV_TRUE)
                     <= 3.0 * se + OBS_LTV_WEIGHTED_BIAS)
    ratio = res_w.sample_cov_diag / OBS_LTV_WEIGHTED_VAR
    var_ok = np.all((ratio >= 1 / 1.5) & (ratio <= 1.5))
    est_cov_rel = np.abs(res_w.mean_est_cov_diag - res_w.sample_cov_diag) \
        / res_w.sample_cov_diag
    est_cov_ok = np.all(est_cov_rel <= 0.30)
    beats_ordinary = np.all(res_w.sample_cov_diag < res_o.sample_cov_diag)
    time_ok = elapsed < 3600.0
    ok = report(
        "criterion 2 (observable LTV, weighted)",
        mean_ok and var_ok and est_cov_ok and beats_ordinary and time_ok,
        f"mean={np.round(res_w.sample_mean, 4)}, "
        f"var={np.round(res_w.sample_cov_diag, 4)} ratio={np.round(ratio, 3)}, "
        f"est_cov rel dev={np.round(est_cov_rel, 3)}, "
        f"weighted<ordinary={beats_ordinary}, elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_clock_ordinary(clock_ordinary):
    # Unbiasedness: like criteria 1, 2 and 4, the sample mean must lie within
    # 3 standard errors of the truth.  A fixed relative bound does not fit
    # here: at n_mc=200 the frozen variances put one standard error at
    # 3.7-4.9 % of alpha[0, 2, 4, 6], so a 5 % bound is about 1 SE.
    # Variance: the sample variances must match the published ones within a
    # factor 2; a sample variance of 200 runs scatters by about
    # sqrt(2/199) = 10 % (one SD), so the band still separates a wrong model
    # or estimator from a right one.
    res, elapsed = clock_ordinary
    se = np.sqrt(res.sample_cov_diag / res.n_mc)
    bias_se = np.abs(res.sample_mean - CLOCK_TRUE) / se
    bias_ok = np.all(bias_se <= 3.0)
    ratio = res.sample_cov_diag / CLOCK_ORDINARY_VAR
    var_ok = np.all((ratio >= 0.5) & (ratio <= 2.0))
    ok = report(
        "criterion 3 (clock ensemble, ordinary)",
        bias_ok and var_ok,
        f"|bias|/se={np.round(bias_se, 2)} (bound 3), "
        f"var ratio={np.round(ratio, 3)}, elapsed={elapsed:.1f}s",
    )
    assert ok


def test_criterion_4_unknown_input_ordinary(ex2_ordinary):
    res, elapsed = ex2_ordinary
    se = np.sqrt(res.sample_cov_diag / res.n_mc)
    mean_ok = np.all(np.abs(res.sample_mean - EX2_TRUE) <= 3.0 * se)
    ratio = res.sample_cov_diag / EX2_ORDINARY_VAR
    var_ok = np.all((ratio >= 1 / 1.5) & (ratio <= 1.5))
    ok = report(
        "criterion 4 (unobservable, unknown input, ordinary)",
        mean_ok and var_ok,
        f"mean={np.round(res.sample_mean, 3)}, ratio={np.round(ratio, 3)}, "
        f"elapsed={elapsed:.1f}s",
    )
    assert ok


def _windows_with_residues(name, tau, seed):
    spec = preset(name, tau=tau)
    traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                    input_signal=benchmark_input_signal(spec), seed=seed)
    sys1 = build_stacked_system(spec.model, spec.structure, traj, spec.L, spec.mode)
    out = []
    for k in range(sys1.n_windows):
        w = window_arrays(sys1, k)
        zt = window_residue(sys1, traj, k)
        noises = np.concatenate([traj.ws[k:k + spec.L - 1].ravel(),
                                 traj.vs[k:k + spec.L].ravel()])
        out.append((k, w, zt, w.ac @ noises))
    return spec, out


def test_criterion_5a_annihilation_and_dual_residue():
    worst_annih = 0.0
    worst_dual = 0.0
    for name in ("obs-ltv", "unobs-unknown-input", "clock-ensemble"):
        spec, rows = _windows_with_residues(name, tau=200, seed=1)
        for k, w, zt, direct in rows:
            block = window_matrices(spec.model, k, spec.L)
            target = block.O
            if spec.mode == UNKNOWN_INPUT:
                target = np.hstack([block.O, block.Gamma @ block.scriptG])
            annih = np.max(np.abs(w.annihilator @ target)) \
                / (1.0 + np.max(np.abs(target)))
            dual = np.max(np.abs(zt - direct)) / (1.0 + np.max(np.abs(direct)))
            worst_annih = max(worst_annih, annih)
            worst_dual = max(worst_dual, dual)
    ok = report(
        "criterion 5a (annihilation exactness, dual-path residue)",
        worst_annih < 1e-9 and worst_dual < 1e-9,
        f"worst annihilation residual={worst_annih:.2e}, "
        f"worst dual-path deviation={worst_dual:.2e}",
    )
    assert ok


def test_criterion_5b_residue_invariances():
    worst_init = 0.0
    for name in ("obs-ltv", "clock-ensemble"):
        spec = preset(name, tau=150)
        u = benchmark_input_signal(spec)
        alt = InitialCondition(mean=np.full(spec.model.n_x, 37.0),
                               cov=4.0 * np.eye(spec.model.n_x))
        t1 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                      input_signal=u, seed=5)
        t2 = simulate(spec.model, spec.structure, spec.alpha_true, alt,
                      input_signal=u, seed=5)
        sys0 = build_design(spec.model, spec.structure, spec.L, spec.mode,
                            n_windows=152 - spec.L)
        s1, s2 = sys0.with_data(t1), sys0.with_data(t2)
        for k in range(sys0.n_windows):
            r1, r2 = window_residue(s1, t1, k), window_residue(s2, t2, k)
            worst_init = max(worst_init,
                             np.max(np.abs(r1 - r2)) / (1 + np.max(np.abs(r1))))

    spec = preset("unobs-unknown-input", tau=150)
    u1 = benchmark_input_signal(spec)
    u2 = u1 + 10.0
    t1 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                  input_signal=u1, seed=6)
    t2 = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                  input_signal=u2, seed=6)
    sys0 = build_design(spec.model, spec.structure, spec.L, UNKNOWN_INPUT,
                        n_windows=150)
    worst_input = 0.0
    for k in range(sys0.n_windows):
        w = window_arrays(sys0, k)
        z1, z2 = (np.concatenate(t.zs[k:k + spec.L], axis=None) for t in (t1, t2))
        r1, r2 = w.annihilator @ z1, w.annihilator @ z2
        worst_input = max(worst_input,
                          np.max(np.abs(r1 - r2)) / (1 + np.max(np.abs(r1))))
    ok = report(
        "criterion 5b (residue invariance to initial state / unknown input)",
        worst_init < 1e-9 and worst_input < 1e-9,
        f"worst initial-state deviation={worst_init:.2e}, "
        f"worst injected-input deviation={worst_input:.2e}",
    )
    assert ok


def test_criterion_5c_replication_unification_identity(rng=None):
    rng = np.random.default_rng(3)
    ok = True
    for n in range(1, 7):
        xi = unification_matrix(n)
        psi = replication_matrix(n)
        for _ in range(5):
            m = rng.standard_normal((n, n))
            s = m + m.T
            if not np.array_equal(psi @ (xi @ vec(s)), vec(s)):
                ok = False
    ok = report("criterion 5c (Psi Xi identity on symmetric vecs, n=1..6, exact)",
                ok, "bitwise equality")
    assert ok


def _band_oracle_check(structure, alpha, n_samples, seed):
    """Empirical fourth moments vs the closed-form bands, L=2."""
    l_win = 2
    etas = gaussian_eta_covariances(structure, alpha, l_win)
    n_w, n_v = structure.n_w, structure.n_v
    n_eps = etas.n_eps
    from mdmest import assemble_qr
    from mdmest.model import psd_factor
    q, r = assemble_qr(structure, alpha)
    sq, sr = psd_factor(q), psd_factor(r)
    rng = np.random.default_rng(seed)
    chunk = 100000
    remaining = n_samples
    sum1 = [np.zeros(n_eps ** 4) for _ in range(l_win)]
    sum2 = [np.zeros(n_eps ** 4) for _ in range(l_win)]
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        w = rng.standard_normal((m, 2, n_w)) @ sq.T      # w_k, w_{k+1}
        v = rng.standard_normal((m, 3, n_v)) @ sr.T      # v_k .. v_{k+2}
        eps0 = np.concatenate([w[:, 0], v[:, 0], v[:, 1]], axis=1)
        eps1 = np.concatenate([w[:, 1], v[:, 1], v[:, 2]], axis=1)
        eta0 = (np.einsum("ni,nj->nij", eps0, eps0).reshape(m, -1) - eta_mean(etas))
        eta1 = (np.einsum("ni,nj->nij", eps1, eps1).reshape(m, -1) - eta_mean(etas))
        for j, eta_b in ((0, eta0), (1, eta1)):
            prod = np.einsum("ni,nj->nij", eta0, eta_b).reshape(m, -1)
            sum1[j] += prod.sum(axis=0)
            sum2[j] += (prod ** 2).sum(axis=0)
    worst = 0.0
    for j in range(l_win):
        mean = sum1[j] / n_samples
        var = sum2[j] / n_samples - mean ** 2
        se = np.sqrt(np.maximum(var, 0.0) / n_samples)
        band = eta_band(etas, j).reshape(-1)
        dev = np.abs(mean - band) / (4.0 * se + 1e-12)
        worst = max(worst, float(np.max(dev)))
    return worst


def test_criterion_5d_isserlis_bands_vs_sampling_oracle():
    spec = preset("obs-ltv", tau=10)
    worst1 = _band_oracle_check(spec.structure, spec.alpha_true, 10 ** 6, 101)

    rng = np.random.default_rng(7)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    c = rng.standard_normal((2, 2))
    structure = NoiseStructure.from_pairs([
        (a @ a.T + 0.5 * np.eye(2), np.zeros((2, 2))),
        (np.zeros((2, 2)), b @ b.T + 0.5 * np.eye(2)),
        (0.1 * (c + c.T), 0.05 * np.eye(2)),
    ])
    worst2 = _band_oracle_check(structure, [1.0, 0.8, 0.3], 10 ** 6, 102)
    ok = report(
        "criterion 5d (Gaussian fourth-moment bands vs 1e6-sample oracle)",
        worst1 < 1.0 and worst2 < 1.0,
        f"worst |dev|/4se: benchmark structure={worst1:.3f}, "
        f"random structure={worst2:.3f}",
    )
    assert ok


def test_criterion_5e_weighted_branch_equivalences():
    spec = preset("obs-ltv", tau=500)
    u = benchmark_input_signal(spec)
    traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                    input_signal=u, seed=11)
    sys_full = build_stacked_system(spec.model, spec.structure, traj, spec.L)
    est_o = ordinary_mdm(sys_full)
    etas = gaussian_eta_covariances(spec.structure, est_o.alpha_hat, spec.L,
                                    repair=True)
    from mdmest import assemble_p
    p_hat = assemble_p(sys_full, etas)
    est_full = weighted_mdm(sys_full, p_hat, branch="full-rank")
    est_con = weighted_mdm(sys_full, p_hat, branch="constrained")
    branch_dev = np.max(np.abs(est_full.alpha_hat - est_con.alpha_hat)) \
        / np.max(np.abs(est_full.alpha_hat))
    # identity weight, in the band storage weighted_mdm takes
    est_eye = weighted_mdm(sys_full, np.ones((1, sys_full.n_rows)))
    eye_dev = np.max(np.abs(est_eye.alpha_hat - est_o.alpha_hat)) \
        / np.max(np.abs(est_o.alpha_hat))
    ok = report(
        "criterion 5e (constrained==full-rank on full-rank weight; identity "
        "weight==ordinary)",
        branch_dev < 1e-8 and eye_dev < 1e-9,
        f"branch deviation={branch_dev:.2e}, identity-weight deviation={eye_dev:.2e}",
    )
    assert ok


def test_criterion_5f_consistency_variance_shrinks(obs_ltv_ordinary):
    res_long, _ = timed_mc(preset("obs-ltv", tau=4000, seed=0), "ordinary", 300)
    res_short, _ = timed_mc(preset("obs-ltv", tau=1000, seed=0), "ordinary", 300)
    ok = report(
        "criterion 5f (variance shrinks from tau=1e3 to tau=4e3)",
        bool(np.all(res_long.sample_cov_diag < res_short.sample_cov_diag)),
        f"var(tau=4000)={np.round(res_long.sample_cov_diag, 4)} < "
        f"var(tau=1000)={np.round(res_short.sample_cov_diag, 4)}",
    )
    assert ok


def test_criterion_5g_identifiability():
    full_ok = True
    details = []
    for name in ("obs-ltv", "unobs-unknown-input", "clock-ensemble"):
        spec = preset(name, tau=60)
        sys0 = build_design(spec.model, spec.structure, spec.L, spec.mode)
        details.append(f"{name}: rank {sys0.rank}/{sys0.n_alpha}")
        full_ok &= sys0.rank == sys0.n_alpha

    from conftest import make_ge_equal_model, make_ge_equal_structure
    sys_ge = build_design(make_ge_equal_model(), make_ge_equal_structure(), 2,
                          UNKNOWN_INPUT)
    drop_ok = sys_ge.rank < sys_ge.n_alpha and sys_ge.participation[0] > 0.99
    details.append(
        f"G=E model: rank {sys_ge.rank}/{sys_ge.n_alpha}, "
        f"Q-direction participation={sys_ge.participation[0]:.3f}")
    ok = report("criterion 5g (identifiability ranks)",
                full_ok and drop_ok, "; ".join(details))
    assert ok


def test_criterion_6_benchmark_determinism(tmp_path):
    from mdmest.cli import main
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["benchmark", "obs-ltv", "--seed", "7", "--n-mc", "25"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    same = True
    for name in ("obs-ltv_ordinary_table.csv", "obs-ltv_ordinary_runs.csv"):
        same &= (out1 / name).read_bytes() == (out2 / name).read_bytes()
    ok = report("criterion 6 (benchmark CSV outputs byte-identical)",
                same, "table.csv and runs.csv compared")
    assert ok


def test_extra_weighted_bias_shrinks_with_horizon(obs_ltv_weighted):
    """Supporting check: the weighted estimate bias decays with the horizon."""
    res_long, _ = obs_ltv_weighted
    res_short, _ = timed_mc(preset("obs-ltv", tau=100, seed=0), "weighted", 400)
    bias_long = np.sum(np.abs(res_long.sample_mean - OBS_LTV_TRUE))
    bias_short = np.sum(np.abs(res_short.sample_mean - OBS_LTV_TRUE))
    ok = report(
        "extra (weighted bias decays with horizon)",
        bias_short > bias_long,
        f"sum|bias| tau=100: {bias_short:.4f} > tau=1000: {bias_long:.4f}",
    )
    assert ok


@pytest.mark.filterwarnings("ignore:Q/R estimate is indefinite:RuntimeWarning")
def test_extra_unknown_input_weighted(ex2_ordinary):
    """The weighted estimator on the paper's headline case (unobservable,
    unknown input) at tau=1000, 500 runs from seed 0: unbiased within 3 SE,
    less scatter than the ordinary estimator, and a reported covariance
    within criterion 2's band of the observed scatter."""
    res_o, _ = ex2_ordinary
    res_w, elapsed = timed_mc(preset("unobs-unknown-input", tau=1000, seed=0),
                              "weighted", 500)
    se = np.sqrt(res_w.sample_cov_diag / res_w.n_mc)
    bias_se = np.abs(res_w.sample_mean - EX2_TRUE) / se
    bias_ok = np.all(bias_se <= 3.0)
    var_ratio = res_w.sample_cov_diag / res_o.sample_cov_diag
    beats_ordinary = np.all(var_ratio < 1.0)
    est_cov_rel = np.abs(res_w.mean_est_cov_diag - res_w.sample_cov_diag) \
        / res_w.sample_cov_diag
    est_cov_ok = np.all(est_cov_rel <= 0.30)
    ok = report(
        "extra (unknown input, weighted)",
        bias_ok and beats_ordinary and est_cov_ok,
        f"|bias|/se={np.round(bias_se, 2)}, "
        f"weighted/ordinary var={np.round(var_ratio, 3)}, "
        f"est_cov rel dev={np.round(est_cov_rel, 3)}, elapsed={elapsed:.1f}s",
    )
    assert ok
