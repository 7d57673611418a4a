import logging
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st

from mdmest import (
    DataError,
    IndefiniteWeight,
    InitialCondition,
    KNOWN_INPUT,
    LtvModel,
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
    feasible_design,
    gaussian_eta_covariances,
    min_feasible_window,
    ordinary_estimates,
    ordinary_mdm,
    preset,
    simulate,
    simulate_runs,
    weighted_estimates,
    weighted_mdm,
    weighted_pipeline,
)
from mdmest import estimator
from mdmest.benchmarks import benchmark_input_signal
from mdmest.estimator import P_DENSE_MAX_ROWS
from mdmest.linalg import svd_rank
from mdmest.model import MatrixSequence, MeasurementData
from mdmest.residue import window_blocks

from conftest import (
    dense_from_band,
    direct_p,
    eta_band,
    eta_mean,
    isserlis_p,
    kept_rows,
    make_ragged_ltv_model,
    make_ge_equal_model,
    make_ge_equal_structure,
    make_switching_h_model,
    make_switching_h_structure,
    make_ragged_ltv_structure,
    rao_reference,
    window_arrays,
)
from test_geometry import bitwise_equal, window_cases
from test_residue import window_noises

INDEFINITE_MESSAGE = r"^weight matrix has eigenvalue -\S+ below -\S+$"


def simulated_system(name, tau, seed, alpha=None, tol=Tolerance()):
    spec = preset(name, tau=tau)
    traj = simulate(spec.model, spec.structure,
                    spec.alpha_true if alpha is None else alpha,
                    spec.init, input_signal=benchmark_input_signal(spec), seed=seed)
    return spec, build_stacked_system(spec.model, spec.structure, traj, spec.L,
                                      spec.mode, tol)


class TestBuildStackedSystem:
    def test_minimal_horizon_single_window(self, scalar_lti_model, scalar_structure):
        # tau = L - 1 leaves exactly one usable window
        L = 4
        data = MeasurementData.from_records([np.array([float(k)]) for k in range(L)])
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
        n_a = window_arrays(sys_full, 0).n_a
        assert n_a == 16
        per = n_a * (n_a + 1) // 2
        assert sys_full.n_rows == per * sys_full.n_windows

    def test_too_short_horizon(self, scalar_lti_model, scalar_structure):
        data = MeasurementData.from_records([np.array([1.0]), np.array([2.0])])
        with pytest.raises(DataError, match="horizon too short"):
            build_stacked_system(scalar_lti_model, scalar_structure, data, 5)

    @pytest.mark.parametrize("tau", [2, 3, 5, 10])
    def test_windows_past_the_horizon_rejected(self, scalar_structure, tau):
        """Windows over 21 records of a model with fewer steps raise the
        DataError ``with_data`` gives for such data, from each entry point
        that builds windows."""
        model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=tau, F=[[0.9]], G=None,
                                E=[[1.0]], H=[[1.0]], D=[[1.0]])
        message = f"^data has 21 records but the model horizon is tau={tau}$"
        with pytest.raises(DataError, match=message):
            build_design(model, scalar_structure, 2, KNOWN_INPUT, n_windows=20)
        with pytest.raises(DataError, match=message):
            feasible_design(model, scalar_structure, KNOWN_INPUT, n_records=21)
        with pytest.raises(DataError, match=message):
            min_feasible_window(model, KNOWN_INPUT, n_records=21)

    def test_no_annihilator_reports_minimal_window(self):
        spec = preset("obs-ltv", tau=20)
        with pytest.raises(NoAnnihilator) as err:
            build_design(spec.model, spec.structure, 1, KNOWN_INPUT)
        assert err.value.minimal_feasible_l == 2
        assert "smallest feasible window length is L=2" in str(err.value)

    def test_ragged_data_rejected(self, scalar_lti_model, scalar_structure):
        data = MeasurementData.from_records([np.array([1.0]), np.array([2.0, 3.0])])
        with pytest.raises(DataError, match="record k=1"):
            build_stacked_system(scalar_lti_model, scalar_structure, data, 2)

    @pytest.mark.parametrize("field", ["zs", "us"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_data_rejected(self, field, bad):
        spec = preset("obs-ltv", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        getattr(traj, field)[5][:] = bad
        with pytest.raises(DataError, match="record k=5"):
            build_stacked_system(spec.model, spec.structure, traj, 2)

    def test_missing_input_records_rejected(self):
        spec = preset("obs-ltv", tau=20)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        short = MeasurementData.from_records(traj.zs, traj.us[:-2])
        with pytest.raises(DataError, match="data has 19 input records but its "
                                            "21 measurement records need 20"):
            build_stacked_system(spec.model, spec.structure, short, 2)
        short = MeasurementData.from_records(traj.zs, traj.us[:-3] + [np.zeros(1)] * 2)
        build_stacked_system(spec.model, spec.structure, short, 2)

    @pytest.mark.parametrize("g, warns", [(0.0, False), (1.0, True)],
                             ids=["zero-G", "obs-ltv"])
    def test_zero_input_warning_only_for_effective_input(self, caplog, g, warns):
        """Data without input records warn of a zero input only when G has a
        nonzero entry, not when its columns are all zero."""
        spec = preset("obs-ltv", tau=30)
        model = replace(spec.model, G=MatrixSequence(np.full((1, 1), g), spec.tau))
        traj = simulate(model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        with caplog.at_level("WARNING", logger="mdmest.estimator"):
            build_stacked_system(model, spec.structure, MeasurementData(traj.z, traj.n_z),
                                 spec.L)
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
        return spec, design, runs.z, runs.u

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
                weighted_estimates(design, obs)
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
                weighted_estimates(design, obs)
            else:
                ordinary_estimates(design, obs)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_weight_band_is_refused_without_warning(self):
        """Squared residues of 1e300 give a finite first pass whose weight
        band overflows: it is refused as not finite, and numpy warns of
        nothing on the way."""
        spec = preset("obs-ltv", tau=60)
        design = build_design(spec.model, spec.structure, spec.L, KNOWN_INPUT)
        with pytest.raises(MdmError) as err:
            weighted_estimates(design, np.full((1, design.n_rows), 1e300))
        assert type(err.value) is MdmError
        assert str(err.value) == "weight matrix is not finite"

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_solve_is_refused(self, weighted):
        """Finite squared residues of +-1.7e308 overflow the least-squares
        solve.  The run is refused with a DataError naming it, not returned
        as NaN (ordinary) or failed by the eigensolver (weighted)."""
        spec = preset("unobs-unknown-input", tau=40)
        design = build_design(spec.model, spec.structure, spec.L, spec.mode)
        big = np.where(np.arange(design.n_rows) % 2, 1.7e308, -1.7e308)
        obs = np.vstack([np.ones(design.n_rows), big])
        solve = weighted_estimates if weighted else ordinary_estimates
        with pytest.raises(DataError, match="^squared residues overflow the "
                                            "least-squares solve$") as err:
            solve(design, obs)
        assert err.value.run == 1
        if not weighted:
            with pytest.raises(DataError, match="^squared residues overflow") as err:
                ordinary_estimates(design, big)
            assert err.value.run is None

    def test_weighted_estimates_take_runs_of_rows(self):
        spec, design, z, u = self.batch()
        obs = design.residues(z, u)
        with pytest.raises(DataError, match=rf"shape \({design.n_rows},\); "
                                            rf"weighted_estimates takes \(runs, "):
            weighted_estimates(design, obs[0])


def smallest_built_length(model, structure, mode, tol):
    """The smallest L at which ``build_design`` accepts the model's tau + 1
    records (None if none does), and the ``minimal_feasible_l`` that each
    shorter L's NoAnnihilator names."""
    hints = []
    for L in range(1, model.tau + 2):
        try:
            build_design(model, structure, L, mode, tol)
        except NoAnnihilator as exc:
            hints.append(exc.minimal_feasible_l)
            continue
        return L, hints
    return None, hints


@pytest.mark.bitwise
@given(window_cases(), st.data())
def test_length_decisions_agree_at_a_drawn_threshold(case, data):
    """With rank_tol at a window target's sigma_r / (sigma_1 max(shape)), so
    that its rank threshold lands on sigma_r up to rounding, and at rank_tol's
    two neighbouring floats: ``min_feasible_window``, the smallest L that
    ``build_design`` accepts and the L its refusals name all agree."""
    model, structure, L, mode = case
    blocks = window_blocks(model, np.arange(1 if model.is_lti else model.tau + 2 - L), L)
    b = data.draw(st.sampled_from(blocks))
    target = b.O
    if mode == UNKNOWN_INPUT and b.scriptG.shape[-1] > 0:
        target = np.concatenate([b.O, b.Gamma @ b.scriptG], axis=-1)
    s = svd_rank(target, full_matrices=True)[1]
    w = data.draw(st.integers(0, s.shape[0] - 1))
    assume(s[w, 0] > 0)
    r = data.draw(st.integers(0, s.shape[1] - 1))
    base = float(s[w, r] / (s[w, 0] * max(target.shape[-2:])))
    for rank_tol in (float(np.nextafter(base, 0.0)), base, float(np.nextafter(base, 1.0))):
        tol = Tolerance(rank_tol=rank_tol)
        built, hints = smallest_built_length(model, structure, mode, tol)
        assert min_feasible_window(model, mode, tol) == built
        assert set(hints) <= {built}


class TestRefusals:
    """What the estimator's entry points refuse, and the message they give."""

    @staticmethod
    def design(n_windows=None):
        spec = preset("obs-ltv", tau=20)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        return traj, build_design(spec.model, spec.structure, spec.L, KNOWN_INPUT,
                                  n_windows=n_windows)

    @pytest.mark.parametrize("n_windows, cut, message", [
        (None, 1, "data has 20 records but the design's 20 windows of length L=2 "
                  "span 21"),
        (19, 0, "data has 21 records but the design's 19 windows of length L=2 "
                "span 20"),
    ])
    def test_with_data_needs_the_records_the_windows_span(self, n_windows, cut,
                                                          message):
        traj, design = self.design(n_windows)
        data = MeasurementData.from_records(traj.zs[:len(traj.zs) - cut],
                                            traj.us[:len(traj.us) - cut])
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            design.with_data(data)

    @pytest.mark.parametrize("shape", [(21,), (1, 20), (2, 22)])
    def test_residues_need_runs_of_the_spanned_records(self, shape):
        _, design = self.design()
        with pytest.raises(DataError, match=re.escape(
                f"measurement records of shape {shape}; the design's windows "
                "span (runs, 21)")):
            design.residues(np.zeros(shape))

    @pytest.mark.parametrize("solve", [
        ordinary_mdm,
        lambda sys: weighted_mdm(sys, np.ones((1, sys.n_rows))),
        weighted_pipeline,
    ], ids=["ordinary_mdm", "weighted_mdm", "weighted_pipeline"])
    def test_a_design_without_data_is_refused(self, solve):
        _, design = self.design()
        with pytest.raises(ValueError, match="^system carries no observations$"):
            solve(design)

    def test_weighted_mdm_refuses_a_rank_deficient_design(self, ge_equal_model,
                                                          ge_equal_structure):
        traj = simulate(ge_equal_model, ge_equal_structure, [1.0, 0.5],
                        input_signal=np.sin(np.arange(61) / 60.0)[:, None], seed=1)
        sys_full = build_stacked_system(ge_equal_model, ge_equal_structure, traj,
                                        2, UNKNOWN_INPUT)
        with pytest.raises(RankDeficientDesign, match="^design matrix rank 1 < 2 "):
            weighted_mdm(sys_full, np.ones((1, sys_full.n_rows)))

    def test_forced_full_rank_branch_refuses_a_singular_weight(self):
        traj, design = self.design()
        sys_full = design.with_data(traj)
        ab = np.ones((1, sys_full.n_rows))
        ab[0, 0] = 0.0
        with pytest.raises(IndefiniteWeight, match="^full-rank branch forced but "
                                                   "the weight is singular$"):
            weighted_mdm(sys_full, ab, branch="full-rank")

    def test_assemble_p_refuses_another_noise_dimension(self):
        traj, design = self.design()
        structure = NoiseStructure.from_pairs([(np.eye(2), np.zeros((1, 1))),
                                               (np.zeros((2, 2)), np.eye(1))])
        etas = gaussian_eta_covariances(structure, [1.0, 1.0], design.L)
        with pytest.raises(ValueError, match="^band dimension n_eps=4 does not "
                                             "match system n_eps=3$"):
            assemble_p(design.with_data(traj), etas)


class TestMinFeasibleWindow:
    def test_presets(self):
        for name, expected in (("obs-ltv", 2), ("clock-ensemble", 3)):
            spec = preset(name, tau=30)
            assert min_feasible_window(spec.model, KNOWN_INPUT) == expected

    def test_unknown_input_needs_wider_window(self, ge_equal_model):
        assert min_feasible_window(ge_equal_model, UNKNOWN_INPUT) == 2

    @pytest.mark.parametrize("name, tau, mode", [
        ("obs-ltv", 60, KNOWN_INPUT),
        ("unobs-unknown-input", 40, UNKNOWN_INPUT),
        ("clock-ensemble", 20, KNOWN_INPUT),
        ("ge-equal", 60, UNKNOWN_INPUT),
    ])
    def test_feasible_design_is_build_design_at_its_l(self, name, tau, mode):
        """The design ``feasible_design`` returns is bitwise the one
        ``build_design`` builds at its L.  The G == E model has full rank at
        no L, so ``min_feasible_window`` finds none for it."""
        if name == "ge-equal":
            model, structure = make_ge_equal_model(tau), make_ge_equal_structure()
        else:
            spec = preset(name, tau=tau)
            model, structure = spec.model, spec.structure
        got = feasible_design(model, structure, mode)
        assert min_feasible_window(model, mode, structure=structure) == (
            None if name == "ge-equal" else got.L)
        want = build_design(model, structure, got.L, mode)
        assert (got.L, got.rank, got.rank_threshold) == (want.L, want.rank,
                                                         want.rank_threshold)
        for field in ("kinds", "kind_design", "kind_offsets", "design", "row_offsets",
                      "ac", "scale", "u", "s", "vt", "null_basis"):
            assert bitwise_equal(getattr(got, field), getattr(want, field)), field
        assert len(got.residue_groups) == len(want.residue_groups)
        for g1, g2 in zip(got.residue_groups, want.residue_groups):
            for field in ("windows", "annihilator", "gamma_g", "z_index", "u_index"):
                assert bitwise_equal(getattr(g1, field), getattr(g2, field)), field
        assert (got.reduction is None) == (want.reduction is None)
        if got.reduction is not None:
            for field in ("transforms", "row_offsets"):
                assert bitwise_equal(getattr(got.reduction, field),
                                     getattr(want.reduction, field)), field

    @pytest.mark.parametrize("rejected_by", ["annihilator", "rank"])
    def test_rejected_length_logs_no_near_threshold_warning(self, caplog, rejected_by):
        """An L passed over logs no near-threshold warning; the design
        returned logs its own, once.

        annihilator: L = 1 has none: each window's H has singular values 1
        and 1e-9, five times its rank threshold 2e-10, so rank 2 of 2 rows.
        Rejecting it, in the scan or for an explicit L, logs nothing; at
        L = 2 every singular value is near 1.

        rank: the clock at tau=40 with rank_tol 1e-2 has a singular value
        within a decade of its threshold at every L from 2 to 12, each
        passed over for the design's rank; L = 2, the highest rank, is kept
        and logs its warning after the scan, for all 40 of its windows,
        which share one geometry.  ``min_feasible_window`` takes no design
        and logs no warning."""
        if rejected_by == "rank":
            spec = preset("clock-ensemble", tau=40)
            tol = Tolerance(rank_tol=1e-2)
            with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
                design = feasible_design(spec.model, spec.structure, spec.mode, tol)
            assert design.L == 2
            assert [r.levelno for r in caplog.records] == (
                [logging.INFO] * 13 + [logging.WARNING])
            assert caplog.records[-1].getMessage() == (
                "40 window(s) have singular values within a decade of the rank "
                "threshold; closest: sigma/threshold = 0.953 at window k=0, rank 3 kept")
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
                assert min_feasible_window(spec.model, spec.mode, tol,
                                           structure=spec.structure) is None
            assert [r.levelno for r in caplog.records] == [logging.INFO] * 12
        else:
            model = LtvModel.create(n_x=2, n_w=1, n_v=2, tau=8,
                                    F=np.array([[0.0, 1.0], [1.0, 0.0]]), G=None,
                                    E=np.ones((2, 1)), H=np.diag([1.0, 1e-9]),
                                    D=np.eye(2))
            structure = NoiseStructure.from_pairs([(np.eye(1), np.eye(2))])
            with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
                assert feasible_design(model, structure, KNOWN_INPUT).L == 2
                with pytest.raises(NoAnnihilator) as err:
                    build_design(model, structure, 1, KNOWN_INPUT)
            assert err.value.minimal_feasible_l == 2
            assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
                (logging.INFO, "L=1 passed over: window k=0 has no annihilator "
                               "(rank 2 of 2 rows)")]

    def test_scan_logs_a_skipped_length(self, caplog):
        """obs-ltv's Upsilon has a zero Q column at L = 1 (one-step windows
        carry no state noise), so the scan passes over it unbuilt."""
        spec = preset("obs-ltv", tau=60)
        with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
            design = feasible_design(spec.model, spec.structure, KNOWN_INPUT)
        assert design.L == 2
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "L=1 passed over: Upsilon has a zero column for alpha_1")]

    def test_fallback_logs_every_rank_deficient_length(self, caplog, ge_equal_model,
                                                       ge_equal_structure):
        with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
            design = feasible_design(ge_equal_model, ge_equal_structure,
                                     UNKNOWN_INPUT)
        assert (design.L, design.rank) == (2, 1)
        assert {r.levelno for r in caplog.records} == {logging.INFO}
        assert [r.getMessage() for r in caplog.records] == (
            ["L=1 passed over: Upsilon has a zero column for alpha_1"]
            + [f"L={L} passed over: the design has rank 1 of 2" for L in range(2, 13)]
            + ["no L up to 12 gives full rank; L=2, rank 1 of 2, is kept"])

    def test_fallback_without_annihilator_raises(self):
        spec = preset("obs-ltv", tau=20)
        with pytest.raises(MdmError, match="^no window length up to L=1 has an "
                                           "annihilator for 1 records$"):
            feasible_design(spec.model, spec.structure, KNOWN_INPUT, n_records=1)
        assert min_feasible_window(spec.model, KNOWN_INPUT, n_records=1,
                                   structure=spec.structure) is None

    def test_rank_deficient_scan_keeps_the_highest_rank(self, caplog):
        """With rank_tol 1e-3 no L gives unobs full rank: L = 1 has zero
        Upsilon columns for alpha_1..alpha_3, L = 2 rank 3, L = 3 rank 2 and
        every longer L rank 0.  The design kept is L = 2's, not L = 1's of
        rank 1."""
        spec = preset("unobs-unknown-input", tau=40)
        tol = Tolerance(rank_tol=1e-3)
        with caplog.at_level(logging.INFO, logger="mdmest.estimator"):
            design = feasible_design(spec.model, spec.structure, UNKNOWN_INPUT, tol)
        assert (design.L, design.rank) == (2, 3)
        assert caplog.records[-1].getMessage() == (
            "no L up to 12 gives full rank; L=2, rank 3 of 6, is kept")
        assert min_feasible_window(spec.model, UNKNOWN_INPUT, tol,
                                   structure=spec.structure) is None

    @pytest.mark.parametrize("mode", ["unknown", "no input", "no-input"])
    @pytest.mark.parametrize("entry", ["build_design", "build_stacked_system",
                                       "feasible_design", "min_feasible_window",
                                       "min_feasible_window(structure)"])
    def test_unknown_mode_is_refused(self, monkeypatch, entry, mode):
        """An input mode other than the two raises ValueError naming them
        before any window is built: "unknown" used to build a design that
        left the unknown input in the residues; "no-input" is no longer one."""
        spec = preset("unobs-unknown-input", tau=30)
        model, structure = spec.model, spec.structure
        data = MeasurementData.from_records([np.zeros(3)] * 31)
        calls = {
            "build_design": lambda: build_design(model, structure, 2, mode),
            "build_stacked_system": lambda: build_stacked_system(model, structure,
                                                                 data, 2, mode),
            "feasible_design": lambda: feasible_design(model, structure, mode),
            "min_feasible_window": lambda: min_feasible_window(model, mode),
            "min_feasible_window(structure)": lambda: min_feasible_window(
                model, mode, structure=structure),
        }

        def no_windows(*args):
            raise AssertionError("a window was built")

        monkeypatch.setattr(estimator, "window_blocks", no_windows)
        modes = (KNOWN_INPUT, UNKNOWN_INPUT)
        with pytest.raises(ValueError, match=re.escape(
                f"unknown input mode {mode!r}; choose from {modes}")):
            calls[entry]()

    def test_hint_scans_the_designs_own_records(self):
        model, structure = make_switching_h_model(), make_switching_h_structure()
        assert min_feasible_window(model, KNOWN_INPUT, n_records=5) == 2
        assert min_feasible_window(model, KNOWN_INPUT) == 3
        for n_windows, hint in ((5, 2), (None, 3)):
            with pytest.raises(NoAnnihilator) as err:
                build_design(model, structure, 1, KNOWN_INPUT, n_windows=n_windows)
            assert err.value.minimal_feasible_l == hint

    @pytest.mark.parametrize("step", [-1, 0, 1])
    def test_length_decisions_agree_at_the_rank_threshold(self, step):
        """The clock's L = 2 window has a 4 x 6 target O.  With rank_tol at
        sigma_4 / (6 sigma_1) its threshold lands on sigma_4 up to rounding,
        and one ulp of rank_tol decides whether L = 2 has an annihilator:
        every window-length decision must make the same call."""
        spec = preset("clock-ensemble", tau=40)
        model, structure = spec.model, spec.structure
        target = window_blocks(model, np.arange(1), 2)[0].O
        assert target.shape[-2:] == (4, 6)
        s = svd_rank(target, full_matrices=True)[1][0]
        rank_tol = float(s[3] / (6 * s[0]))
        rank_tol = float(np.nextafter(rank_tol, step * np.inf)) if step else rank_tol
        tol = Tolerance(rank_tol=rank_tol)
        built, hints = smallest_built_length(model, structure, KNOWN_INPUT, tol)
        assert hints and set(hints) == {built}
        assert min_feasible_window(model, KNOWN_INPUT, tol) == built
        assert feasible_design(model, structure, KNOWN_INPUT, tol).L == built


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
        assert sys_full.rank == 2

    def test_rank_deficient_design_raises(self, ge_equal_model, ge_equal_structure):
        traj = simulate(ge_equal_model, ge_equal_structure, [1.0, 0.5],
                        input_signal=np.sin(np.arange(61) / 60.0)[:, None], seed=1)
        sys_full = build_stacked_system(ge_equal_model, ge_equal_structure, traj,
                                        2, UNKNOWN_INPUT)
        with pytest.raises(RankDeficientDesign) as err:
            ordinary_mdm(sys_full)
        assert err.value.rank == 1 and err.value.n_alpha == 2


class TestGaussianEtaCovariances:
    def test_scalar_white_window_one(self, scalar_structure):
        r_var = 1.7
        etas = gaussian_eta_covariances(scalar_structure, [0.0, r_var], 1)
        band0 = eta_band(etas, 0)
        assert band0.shape == (1, 1)
        assert np.allclose(band0[0, 0], 2.0 * r_var ** 2)

    def test_band_beyond_window_is_zero(self, scalar_structure):
        etas = gaussian_eta_covariances(scalar_structure, [2.0, 1.0], 2)
        assert np.array_equal(eta_band(etas, 5), np.zeros((9, 9)))

    def test_indefinite_alpha_raises_without_repair(self, scalar_structure):
        """R = -1e-9 is indefinite by the rank rule at the default
        tolerance: below -rank_tol * 1 * max(1, 1)."""
        for alpha in ([-1.0, 1.0], [1.0, -1e-9]):
            with pytest.raises(NotPositiveSemidefinite):
                gaussian_eta_covariances(scalar_structure, alpha, 2)

    def test_rank_tol_decides_the_psd_test(self, scalar_structure):
        """At rank_tol 1e-8 the floor is -1e-8, and R = -1e-9 stays as it is."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            etas = gaussian_eta_covariances(scalar_structure, [1.0, -1e-9], 2,
                                            tol=Tolerance(rank_tol=1e-8), repair=True)
        assert etas.projection == (0.0, 0.0)
        assert etas.crosses[0, -1, -1] == -1e-9

    def test_indefinite_alpha_repairs_with_warning(self, scalar_structure):
        with pytest.warns(RuntimeWarning):
            etas = gaussian_eta_covariances(scalar_structure, [-1e-3, 1.0], 2,
                                            repair=True)
        assert etas.repaired
        band0 = eta_band(etas, 0)
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
            assert np.array_equal(eta_band(etas, j), eta_band(exact, j))

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
        re2 = eta_mean(etas)
        eta_k = np.einsum("ni,nj->nij", eps_k, eps_k).reshape(n, 9) - re2
        eta_k1 = np.einsum("ni,nj->nij", eps_k1, eps_k1).reshape(n, 9) - re2
        for j, eta_b in ((0, eta_k), (1, eta_k1)):
            prod = np.einsum("ni,nj->nij", eta_k, eta_b).reshape(n, 81)
            mean = prod.mean(axis=0)
            se = prod.std(axis=0, ddof=1) / np.sqrt(n)
            band = eta_band(etas, j).reshape(81)
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
        data = MeasurementData.from_records([np.array([float(k), 1.0]) for k in range(6)])
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
        n_a = {window_arrays(sys_rag, k).n_a for k in range(sys_rag.n_windows)}
        assert len(n_a) == 3
        etas_rag = gaussian_eta_covariances(structure, [1.5, 0.7], 2)
        for sys_full, etas in ((sys_obs, etas_obs), (sys_ui, etas_ui),
                               (sys_rag, etas_rag)):
            ab = assemble_p(sys_full, etas)
            p = dense_from_band(ab)
            assert np.max(np.abs(p - p.T)) < 1e-10 * np.max(np.abs(p))
            # direct route through materialised band matrices, on the kept
            # rows when the design has them
            direct = direct_p(sys_full, etas)
            if sys_full.reduction is not None:
                direct = kept_rows(sys_full, direct)
            assert np.allclose(p, direct, rtol=1e-10, atol=1e-12)
            m = ab.shape[1]
            lag = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
            assert np.all(direct[lag >= ab.shape[0]] == 0.0)
            assert np.all(ab[np.arange(m) >= m - np.arange(ab.shape[0])[:, None]] == 0.0)

    @pytest.mark.parametrize("name, tau", [("unobs-unknown-input", 100),
                                           ("clock-ensemble", 30)])
    def test_kept_row_weight_is_the_reduced_weight(self, name, tau):
        """With shared rows, the band is that of M P M^T on the kept rows,
        with M the row map of the reduction and P the all-row weight built
        in the test.  The clock's band matrices are too large to form, so
        its P is built by the mixed-product rule, which is checked against
        the band route on unobs."""
        spec = preset(name, tau=tau)
        sys0 = build_design(spec.model, spec.structure, spec.L, spec.mode)
        etas = gaussian_eta_covariances(spec.structure, spec.alpha_true, spec.L)
        p = isserlis_p(sys0, etas)
        if name == "unobs-unknown-input":
            direct = direct_p(sys0, etas)
            assert np.max(np.abs(p - direct)) <= 1e-13 * np.max(np.abs(direct))
        red = sys0.reduction
        ends = red.row_offsets[np.minimum(np.arange(sys0.n_windows) + sys0.L,
                                          sys0.n_windows)]
        band_rows = int(np.max(ends - red.row_offsets[:-1]))
        ab = assemble_p(sys0, etas)
        assert ab.shape == (band_rows, red.row_offsets[-1])
        assert band_rows < sys0.band_rows and red.row_offsets[-1] < sys0.n_rows
        expected = kept_rows(sys0, p)
        assert np.max(np.abs(dense_from_band(ab) - expected)) <= (
            1e-12 * np.max(np.abs(expected)))

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
            wg = window_arrays(sys0, k)
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
        assert est_con.method == "weighted-dense"

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
        assert weighted_mdm(sys_full, ab).method == "weighted-dense"

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
            weighted_mdm(replace(sys0, tol=tol), p[None])
        assert err.value.rank == svd_rank(d, tol)[3] == 1
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
            p = np.zeros((sys_full.n_rows, sys_full.n_rows))
        else:
            spec, sys_full = simulated_system(case, tau=100, seed=0)
            with pytest.warns(RuntimeWarning, match="indefinite"):
                etas = gaussian_eta_covariances(
                    spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
            ab = assemble_p(sys_full, etas)
            p = direct_p(sys_full, etas)
        est = weighted_mdm(sys_full, ab)
        assert est.method == ("weighted-dense" if case == "noise-free"
                              else "weighted-kept-row")

        alpha, gram_inv = rao_reference(p, sys_full)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_residue_rejected(self, bad):
        """A squared residue that is not finite is refused on every branch
        with the DataError ``ordinary_mdm`` gives, naming its record, instead
        of an estimate of inf and NaN (the full-rank branch gave one)."""
        spec, sys_full = simulated_system("obs-ltv", tau=60, seed=0)
        obs = sys_full.obs.copy()
        obs[17] = bad
        sys_bad = replace(sys_full, obs=obs)
        with pytest.raises(DataError) as want:
            ordinary_mdm(sys_bad)
        assert str(want.value) == "record k=17: squared residue is not finite"
        for branch in ("auto", "constrained"):
            with pytest.raises(DataError, match=f"^{want.value}$") as err:
                weighted_mdm(sys_bad, np.ones((1, sys_full.n_rows)), branch=branch)
            assert err.value.run == 0

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
        spec, sys_full = simulated_system("obs-ltv", tau=60, seed=0)
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

    def test_design_tolerance_decides_the_branch(self):
        """Every weighted stage takes rank_tol from the design: on obs-ltv
        at tau=40, seed 11, the weight is full rank by the default and
        singular by 1e-3."""
        _, sys_full = simulated_system("obs-ltv", tau=40, seed=11)
        assert weighted_pipeline(sys_full).method == "weighted-full-rank"
        loose = replace(sys_full, tol=Tolerance(rank_tol=1e-3))
        assert weighted_pipeline(loose).method == "weighted-dense"

    @pytest.mark.parametrize("name, tau, seed", [("obs-ltv", 40, 11),
                                                 ("unobs-unknown-input", 100, 0)])
    def test_tol_argument_is_not_used(self, name, tau, seed):
        """``weighted_mdm`` solves with the design's tolerance, on the
        full-rank (obs-ltv) and the kept-row (unobs) branch alike: a looser
        ``tol`` argument, by which the obs-ltv weight would be singular and
        the whitened unobs design rank deficient, gives the same bits."""
        spec, sys_full = simulated_system(name, tau=tau, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            etas = gaussian_eta_covariances(
                spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
        ab = assemble_p(sys_full, etas)
        est = weighted_mdm(sys_full, ab)
        loose = weighted_mdm(sys_full, ab, Tolerance(rank_tol=1e-3))
        assert est.diagnostics["weight_rows"] is not None
        assert (loose.method, loose.diagnostics) == (est.method, est.diagnostics)
        assert bitwise_equal(loose.alpha_hat, est.alpha_hat)
        assert bitwise_equal(loose.cov, est.cov)


def noise_level_obs(sys0, traj):
    """The squared residues of ``traj``'s windows formed from its noises,
    ztilde_k = ac_k eps_k, so that rows shared by adjacent windows agree to
    roundoff of the residues themselves (annihilating a large state first
    can cost many digits: about 7 on the clock ensemble)."""
    rows = []
    for k in range(sys0.n_windows):
        w = window_arrays(sys0, k)
        zt = w.ac @ window_noises(traj, k, sys0.L)
        rows.append(zt[w.sel_i] * zt[w.sel_j])
    return replace(sys0, obs=np.concatenate(rows))


class TestReducedRows:
    """A design with shared rows is solved on the rows it keeps; the
    estimate is Rao's unified LS estimator on all rows."""

    @staticmethod
    def unobs_weight(seed):
        spec, sys_full = simulated_system("unobs-unknown-input", tau=100, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            etas = gaussian_eta_covariances(
                spec.structure, ordinary_mdm(sys_full).alpha_hat, 2, repair=True)
        return sys_full, etas, assemble_p(sys_full, etas)

    @pytest.fixture(scope="class")
    def clock_weight(self):
        """The clock at tau=30 with noise-level residues and its weight at
        alpha_true: (system, kept-row band, all-row P)."""
        spec = preset("clock-ensemble", tau=30)
        traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                        input_signal=benchmark_input_signal(spec), seed=0)
        sys_full = noise_level_obs(
            build_design(spec.model, spec.structure, spec.L, spec.mode), traj)
        etas = gaussian_eta_covariances(spec.structure, spec.alpha_true, spec.L)
        return sys_full, assemble_p(sys_full, etas), isserlis_p(sys_full, etas)

    def test_unknown_input_matches_dense_constrained(self):
        """The banded kept-row solve is the dense g-inverse on the kept rows
        and Rao's estimator on all rows, with its Gram inverse."""
        for seed in range(20):
            sys_full, etas, ab = self.unobs_weight(seed)
            est = weighted_mdm(sys_full, ab)
            dense = weighted_mdm(sys_full, ab, branch="constrained")
            assert (est.method, dense.method) == ("weighted-kept-row", "weighted-dense")
            # 6 rows of window 0, then 5 new rows for each of 99 windows
            assert sys_full.weight_band_shape[1] == est.diagnostics["weight_rows"] == 501
            assert dense.diagnostics["weight_rows"] is None
            scale = np.max(np.abs(dense.alpha_hat))
            assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale, seed
            cov_scale = np.max(np.abs(dense.cov))
            assert np.max(np.abs(est.cov - dense.cov)) <= 1e-12 * cov_scale, seed
            assert np.array_equal(est.cov, est.cov.T)
            alpha, gram_inv = rao_reference(direct_p(sys_full, etas), sys_full)
            assert np.max(np.abs(est.alpha_hat - alpha)) <= 1e-12 * np.max(np.abs(alpha))
            assert (np.max(np.abs(est.cov + np.eye(sys_full.n_alpha) - gram_inv))
                    <= 1e-12 * np.max(np.abs(gram_inv))), seed

    def test_fit_statistic_is_pseudo_inverse_form(self):
        sys_full, etas, ab = self.unobs_weight(0)
        est = weighted_mdm(sys_full, ab)
        r = sys_full.obs - sys_full.design @ est.alpha_hat
        p_pinv = np.linalg.pinv(direct_p(sys_full, etas), rtol=1e-10, hermitian=True)
        j_dense = r @ p_pinv @ r
        assert abs(est.diagnostics["fit_j"] - j_dense) <= 1e-12 * j_dense
        assert est.diagnostics["fit_dof"] == 501 - 6

    def test_clock_ensemble_matches_dense_constrained(self, clock_weight):
        """On the clock (m = 2992, rank P = 787 = 136 + 21 * 31) P is some 40
        decades below X X^T, so the dense branch factors T = c P + X X^T with
        c = ||X||_2^2 / max diag P; the estimate does not depend on c and
        its covariance scales with it.  The kept-row estimate is that of the
        dense branch on the kept rows and of Rao's estimator on all rows,
        whose T is balanced the same way."""
        sys_full, ab, p = clock_weight
        est = weighted_mdm(sys_full, ab)
        assert est.method == "weighted-kept-row"
        assert (sys_full.n_rows, est.diagnostics["weight_rows"]) == (2992, 787)
        c = np.linalg.norm(sys_full.design, 2) ** 2 / np.max(ab[0])
        dense = weighted_mdm(sys_full, c * ab, branch="constrained")
        scale = np.max(np.abs(dense.alpha_hat))
        assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale
        assert (np.max(np.abs(est.cov - dense.cov / c))
                <= 1e-12 * np.max(np.abs(est.cov)))
        c = np.linalg.norm(sys_full.design, 2) ** 2 / np.max(np.diag(p))
        alpha, gram_inv = rao_reference(c * p, sys_full)
        assert np.max(np.abs(est.alpha_hat - alpha)) <= 1e-12 * np.max(np.abs(alpha))
        assert (np.max(np.abs(est.cov - (gram_inv - np.eye(sys_full.n_alpha)) / c))
                <= 1e-12 * np.max(np.abs(est.cov)))

    def test_clock_ensemble_dense_branch_balances_the_weight(self, clock_weight):
        """The dense branch balances P against X X^T itself: on the clock at
        tau=30, where an unbalanced T loses P (rank 4 < 8), it gives the
        kept-row estimate from the unscaled weight."""
        sys_full, ab, _ = clock_weight
        est = weighted_mdm(sys_full, ab)
        dense = weighted_mdm(sys_full, ab, branch="constrained")
        assert dense.method == "weighted-dense"
        assert dense.diagnostics["weight_rows"] is None
        scale = np.max(np.abs(dense.alpha_hat))
        assert np.max(np.abs(est.alpha_hat - dense.alpha_hat)) <= 1e-12 * scale
        assert np.max(np.abs(est.cov - dense.cov)) <= 1e-12 * np.max(np.abs(est.cov))

    def test_loose_rank_tol_keeps_fewer_rows(self):
        """The shared rows are found with the given rank_tol: at 0.006 the
        obs-ltv design at tau=40 counts nearly shared directions as shared
        and keeps 30 of its 40 rows (at the default it shares none), and
        every weighted run is solved on those 30.  Seed 11's kept-row weight
        is singular; the dense branch on the kept rows keeps the design's
        rank, which on all 40 rows it loses."""
        tol = Tolerance(rank_tol=0.006)
        spec, sys_full = simulated_system("obs-ltv", tau=40, seed=11, tol=tol)
        assert build_design(spec.model, spec.structure, spec.L, spec.mode).reduction is None
        assert (sys_full.n_rows, sys_full.weight_band_shape[1]) == (40, 30)
        est = weighted_pipeline(sys_full)
        assert est.method == "weighted-dense"
        assert est.diagnostics["weight_rows"] is None
        assert np.allclose(est.alpha_hat, [11.94353484, -8.68549093], rtol=1e-6, atol=0.0)
        all_rows = replace(sys_full, reduction=None)
        etas = gaussian_eta_covariances(spec.structure, est.diagnostics["alpha_ordinary"],
                                        spec.L)
        with pytest.raises(RankDeficientDesign):
            weighted_mdm(all_rows, assemble_p(all_rows, etas))

    @pytest.mark.parametrize("rank_tol", [0.2, 0.3, 0.5])
    def test_very_loose_rank_tol_shares_no_more_than_a_window_has(self, rank_tol):
        """At these tolerances the pair SVD's threshold reaches its blocks'
        own unit singular values; the shared directions are still at most
        the window's own, so every window keeps between 0 and all of its
        rows (at 0.3, L = 3 counted -53 kept rows before)."""
        spec = preset("obs-ltv", tau=10)
        sys0 = build_design(spec.model, spec.structure, 3, KNOWN_INPUT,
                            Tolerance(rank_tol=rank_tol))
        kept = np.diff(sys0.reduction.row_offsets)
        assert np.all((kept >= 0) & (kept <= np.diff(sys0.row_offsets)))

    def test_row_cap_only_on_the_dense_branch(self):
        """A 9000-row full-rank weight is solved banded; the dense branch
        alone keeps the 8000-row cap."""
        spec, sys_full = simulated_system("obs-ltv", tau=9000, seed=0)
        assert sys_full.n_rows > P_DENSE_MAX_ROWS
        est = weighted_pipeline(sys_full)
        assert est.method == "weighted-full-rank"
        assert est.diagnostics["weight_rows"] == sys_full.n_rows
        etas = gaussian_eta_covariances(spec.structure,
                                        est.diagnostics["alpha_ordinary"], 2)
        message = (r"^weight matrix of size 9000 exceeds the dense assembly limit "
                   r"8000; use the ordinary method or a shorter horizon$")
        with pytest.raises(MdmError, match=message):
            weighted_mdm(sys_full, assemble_p(sys_full, etas), branch="constrained")


# most random models share no residue direction between windows, so most
# draws are filtered out by design
@pytest.mark.bitwise
@settings(suppress_health_check=[HealthCheck.filter_too_much])
@given(window_cases(), st.integers(0, 2**32 - 1))
def test_reduced_rows_are_the_rank_of_the_weight(case, seed):
    """On random small models, the kept rows number rank P and their GLS
    estimate is Rao's on all rows; the dense branch is taken only when P is
    singular beyond the shared rows.  The dense reference is accurate to
    about cond * eps, cond being the larger of P's on its range and that of
    the reference's Gram matrix X^T T^+ X (its normal equations), so the two
    estimates are compared where cond < 1e5, to 32 cond eps relative: below
    1e-9, so a 1e-9 relative error fails on every draw compared."""
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
    etas = gaussian_eta_covariances(structure, alpha, L)
    p = direct_p(sys_full, etas)
    lam = np.linalg.eigvalsh(p)
    lam = lam[lam > 1e-10 * lam[-1] * lam.size]
    assume(lam[-1] < 1e5 * lam[0])
    est = weighted_mdm(sys_full, assemble_p(sys_full, etas))
    rank = svd_rank(p)[3]
    if est.diagnostics["weight_rows"] is None:
        event("dense branch")
        assert sys0.weight_band_shape[1] > rank
        return
    event("kept rows")
    assert est.diagnostics["weight_rows"] == sys0.weight_band_shape[1] == rank
    alpha_ref, gram_inv = rao_reference(p, sys_full)
    cond = max(lam[-1] / lam[0], np.linalg.cond(gram_inv))
    assume(cond < 1e5)
    assert (np.max(np.abs(est.alpha_hat - alpha_ref))
            <= 32.0 * cond * np.finfo(float).eps * np.max(np.abs(alpha_ref)))


class TestThreeStepPipeline:
    def test_noise_free_takes_constrained_branch(self):
        spec = preset("obs-ltv", tau=100)
        init = InitialCondition(mean=np.ones(1), cov=np.zeros((1, 1)))
        u = benchmark_input_signal(spec)
        traj = simulate(spec.model, spec.structure, np.zeros(2), init,
                        input_signal=u, seed=0)
        sys_full = build_stacked_system(spec.model, spec.structure, traj, 2)
        est = weighted_pipeline(sys_full)
        assert est.method == "weighted-dense"
        assert np.max(np.abs(est.alpha_hat)) < 1e-8

    def test_pipeline_records_first_pass(self):
        spec, sys_full = simulated_system("obs-ltv", tau=400, seed=9)
        est = weighted_pipeline(sys_full)
        assert "alpha_ordinary" in est.diagnostics
        assert est.diagnostics["eta_projection"] == (0.0, 0.0)
        assert est.method == "weighted-full-rank"
        assert np.all(np.diag(est.cov) > 0)

    @pytest.mark.parametrize("name", ["obs-ltv", "unobs-unknown-input"])
    def test_failing_run_is_solved_once(self, name, monkeypatch):
        """Residues scaled by 1e160 make the one run's weight overflow: the
        pipeline raises at once, with ``run`` 0, after one pass of the
        weight stages (a run alone is not solved again), and warns of
        nothing: not of the overflow, nor of its projection."""
        _, sys_full = simulated_system(name, tau=100, seed=0)
        sys_full = replace(sys_full, obs=sys_full.obs * 1e160)
        bands = estimator._assemble_bands
        passes = []
        monkeypatch.setattr(estimator, "_assemble_bands",
                            lambda *args: passes.append(1) or bands(*args))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(MdmError, match="^weight matrix is not finite$") as err:
                weighted_pipeline(sys_full)
        assert err.value.run == 0
        assert passes == [1]
        assert [str(w.message) for w in caught] == []

    def test_projection_warning_points_at_the_caller(self):
        """The warning of a projected first pass (unobs at tau=40) names the
        line that called ``weighted_pipeline``, not a line of the package;
        ``weighted_estimates`` reports the projection without a warning."""
        _, sys_full = simulated_system("unobs-unknown-input", tau=40, seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            weighted_pipeline(sys_full)
        assert len(caught) == 1
        assert "indefinite" in str(caught[0].message)
        assert caught[0].filename == __file__
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            runs = weighted_estimates(sys_full, sys_full.obs[None])
        assert runs.repaired[0]
        assert not caught

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
                est = weighted_pipeline(sys_full)
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


@given(window_cases(lti=True, longest=40), st.integers(0, 2**32 - 1))
def test_lti_kinds_solve_as_the_expanded_design(case, seed):
    """On random LTI models, the stacked window kinds stand for all rows:
    ``rank`` and ``rank_threshold`` are ``svd_rank``'s of the expanded
    design / scale, whose floor is sized by n_rows, and the ordinary
    estimate is ``np.linalg.lstsq``'s on it.  Where the equilibrated
    design's condition number is below 1e3, the LS sensitivity (cond +
    cond^2 ||r|| / (||X|| ||x||)) times eps is below 2e-10, and the
    estimates agree to 1e-8 relative."""
    model, structure, L, mode = case
    try:
        sys0 = build_design(model, structure, L, mode)
    except NoAnnihilator:
        assume(False)
    assert "design" not in vars(sys0)
    design = sys0.design
    assert design.shape == (sys0.n_rows, sys0.n_alpha)
    equilibrated = design / sys0.scale
    _, s, _, rank, thr = svd_rank(equilibrated)
    assert np.isclose(sys0.rank_threshold, thr, rtol=1e-12, atol=0.0)
    # a singular value within roundoff of the floor may fall either way
    assume(not np.any((s > thr / 2.0) & (s < 2.0 * thr)))
    assert sys0.rank == rank
    if rank < sys0.n_alpha:
        assert sys0.null_basis.shape == (sys0.n_alpha, sys0.n_alpha - rank)
        assert np.allclose(design @ sys0.null_basis, 0.0,
                           atol=1e-8 * np.linalg.norm(design, 2))
        return
    assume(s[0] < 1e3 * s[-1])
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(-2.0, 2.0, sys0.n_alpha)
    obs = design @ alpha + 0.1 * rng.standard_normal((2, sys0.n_rows))
    ref = np.linalg.lstsq(equilibrated, obs.T, rcond=None)[0].T / sys0.scale
    got = ordinary_estimates(sys0, obs)
    assert np.max(np.abs(got - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_null_basis_of_a_design_with_fewer_rows_than_parameters():
    """One window of one row and two parameters: rank 1, and the null basis
    is the direction the row does not see, though a thin SVD of one row has
    one right vector."""
    one = np.ones((1, 1))
    model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=1, F=0.5 * one, G=None,
                            E=one, H=one, D=one)
    structure = NoiseStructure.from_pairs([(one, 0 * one), (0 * one, one)])
    sys0 = build_design(model, structure, 2, KNOWN_INPUT)
    assert (sys0.n_rows, sys0.rank) == (1, 1)
    assert sys0.null_basis.shape == (2, 1)
    assert np.allclose(sys0.design @ sys0.null_basis, 0.0, atol=1e-14)


def test_lti_design_does_not_grow_with_the_horizon():
    """The clock's design at L=10 holds its two window kinds, not n_rows
    rows: at tau=5000 (678,912 rows) ``build_design`` peaks under 10 MiB
    of traced memory, a 136 x 74 x 74 product of one kind's noise map
    among it, and no array it holds has n_rows rows until ``design`` is
    read.  Only per-window index arrays grow, 20 ints a window for the
    residues' record index."""
    spec = preset("clock-ensemble", tau=5000)
    tracemalloc.start()
    try:
        sys0 = build_design(spec.model, spec.structure, 10, spec.mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    held = [v for v in vars(sys0).values() if isinstance(v, np.ndarray)]
    held += [getattr(g, name) for g in sys0.residue_groups for name in
             ("windows", "annihilator", "gamma_g", "z_index", "u_index")]
    held += [sys0.reduction.transforms, sys0.reduction.row_offsets]
    assert sys0.n_kinds == 2 and sys0.kind_design.shape == (272, 8)
    assert all(a.shape[0] != sys0.n_rows for a in held if a is not None and a.ndim)
    assert sys0.design.shape == (sys0.n_rows, 8) == (678_912, 8)


@pytest.mark.bitwise
@given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
def test_dense_solve_is_solve_triangular(m, cols, seed, data):
    """The dense branch's triangular solve, a direct dtrtrs call, equals
    ``scipy.linalg.solve_triangular(..., lower=True)`` bit for bit on the
    leading rank x rank block of a Fortran-ordered m x m factor: the block
    is Fortran-contiguous at rank m (or 1) and a strided view below it."""
    rank = data.draw(st.integers(1, m))
    event("full rank" if rank == m else "rank below m")
    rng = np.random.default_rng(seed)
    factor = np.asfortranarray(np.tril(rng.standard_normal((m, m))))
    factor[np.diag_indices(m)] = rng.uniform(0.1, 2.0, m)
    block = factor[:rank, :rank]
    assert block.flags.f_contiguous == (rank == m or rank == 1)
    b = rng.standard_normal((rank, cols))
    if data.draw(st.booleans()):
        b = np.asfortranarray(b)
    got = estimator._solve_lower(block, b)
    assert bitwise_equal(got, scipy.linalg.solve_triangular(block, b, lower=True))


@pytest.mark.bitwise
@given(st.integers(1, 12), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_indefinite_eigenvalue_is_eigvals_banded(m, lower_diagonals, seed):
    """The eigenvalue an IndefiniteWeight message reports, a direct dsbevx
    call, equals ``scipy.linalg.eigvals_banded``'s smallest bit for bit on
    random symmetric bands, definite or not."""
    rng = np.random.default_rng(seed)
    ab = rng.standard_normal((min(lower_diagonals, m - 1) + 1, m))
    ab[np.arange(m) >= m - np.arange(ab.shape[0])[:, None]] = 0.0
    want = scipy.linalg.eigvals_banded(ab, lower=True, select="i", select_range=(0, 0))
    got = estimator._lowest_eigenvalue(ab)
    assert bitwise_equal(np.array(got), want[0])


@pytest.mark.bitwise
@pytest.mark.parametrize("handle_first", [True, False])
def test_lapack_handle_is_scipys_module(handle_first):
    """In a fresh interpreter, the handle loaded before or after ``import
    scipy.linalg`` is the one module whose functions scipy.linalg.lapack
    exports, and scipy.linalg works after it."""
    first, second = "h = _lapack()", "import scipy.linalg"
    if not handle_first:
        first, second = second, first
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from mdmest.estimator import _lapack\n"
        f"{first}\n{second}\n"
        "assert scipy.linalg.lapack.dpbtrf is h.dpbtrf\n"
        "assert sys.modules['scipy.linalg._flapack'] is h is _lapack()\n"
        "ab = np.array([[4.0, 5.0, 6.0], [1.0, 2.0, 0.0]])\n"
        "c = scipy.linalg.cholesky_banded(ab, lower=True)\n"
        "p = np.diag(ab[0]) + np.diag(ab[1, :2], -1) + np.diag(ab[1, :2], 1)\n"
        "assert np.allclose(c[0], np.diag(np.linalg.cholesky(p)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(estimator.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


class TestIdentifiability:
    def test_presets_fully_identifiable(self):
        for name, l_win, n_alpha in (("obs-ltv", 2, 2),
                                     ("unobs-unknown-input", 2, 6),
                                     ("clock-ensemble", 10, 8)):
            spec = preset(name, tau=40)
            sys0 = build_design(spec.model, spec.structure, l_win, spec.mode)
            assert sys0.rank == n_alpha == sys0.n_alpha
            assert sys0.null_basis is None and sys0.participation is None

    def test_equal_g_e_unidentifiable_state_noise(self, ge_equal_model,
                                                  ge_equal_structure):
        sys0 = build_design(ge_equal_model, ge_equal_structure, 2, UNKNOWN_INPUT)
        assert sys0.rank == 1
        assert sys0.null_basis.shape == (2, 1)
        # the blind direction is the state-noise parameter
        assert sys0.participation[0] > 0.99
        assert sys0.participation[1] < 1e-6

    def test_single_parameter(self):
        spec = preset("obs-ltv", tau=20)
        from mdmest import NoiseStructure
        structure = NoiseStructure.from_pairs(
            [(np.array([[1.0]]), np.array([[1.0]]))])
        sys0 = build_design(spec.model, structure, 2, KNOWN_INPUT)
        assert sys0.rank == 1
