"""The benchmark workloads: inputs, identify ops, Monte-Carlo loop, checks.

Everything here reaches the program through its public surface only:
``mdmest.cli.main`` for the identify ops, ``benchmarks.run_mc`` for the
Monte-Carlo loop, and the public estimator functions that ``cmd_identify``
calls for the traced replay.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy.special

from mdmest import benchmarks, cli
from mdmest import io as mio
from mdmest.errors import IndefiniteWeight
from mdmest.estimator import (
    assemble_p,
    build_design,
    build_stacked_system,
    gaussian_eta_covariances,
    identifiability_report,
    min_feasible_window,
    ordinary_mdm,
    weighted_mdm,
)
from mdmest.linalg import Tolerance
from mdmest.model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    MeasurementData,
    simulate,
    validate,
)
from mdmest.residue import build_augmented_block

from tracer import Tracer

HERE = Path(__file__).resolve().parent

# shares of --seconds given to the identify ops and to the Monte-Carlo loop
OPS_SHARE = 0.5
MC_SHARE = 0.5
MAX_OPS = 30
MIN_OPS = 3
MIN_MC = 10
# A run is ROUNDS rounds of cold starts, identify ops and a run_mc call, so
# that every timing metric samples the whole run: a shared machine's speed
# swings by 20-30 % over tens of seconds, and one op block and one run_mc
# call side by side saw different halves of such a swing.
ROUNDS = 4
COLD_STARTS_PER_ROUND = 2
# a correct estimator fails the sample-mean check in at most this share of runs
MEAN_CHECK_FALSE_ALARM = 1e-4
# the published weighted-estimate bias allowance of the obs-ltv study
OBS_LTV_WEIGHTED_BIAS = np.array([0.008, 0.002])
ZERO_NOISE_RATIO = 1e-12
ZERO_NOISE_RESIDUE = 1e-9
SCALAR_REF_RTOL = 1e-10
MC_AGREE_RTOL = 1e-8
# the message weighted_mdm gives IndefiniteWeight
INDEFINITE_RE = re.compile(r"error: weight matrix has eigenvalue \S+ below")


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    tau: int
    method: str             # identify --method (--L is always auto)
    input_mode: str         # identify --input-mode
    mc_method: str
    op_s: float             # cost of one identify op when the benchmark was set
    mc_run_s: float         # cost of one Monte-Carlo run, likewise
    op_seeds: tuple | None = None   # fixed data seeds, made in whole passes
    may_fail: bool = False  # IndefiniteWeight ops are counted, not fatal


# Two workloads only: on a 2-vCPU machine shared with other tenants a run
# must measure for tens of seconds before its medians repeat within the
# bounds, and a steadiness check of 4 + 22 runs per workload has 57 minutes.
# Between them they run every layer the per-layer metrics name (README.md).
WORKLOADS = {w.name: w for w in (
    # weighted layers (assemble_p, dense eigvalsh and Cholesky) dominate MC;
    # --L auto and the LTV geometry dominate an identify op
    Workload("obs-ltv-weighted", "obs-ltv", 1000, "weighted", "known",
             "weighted", op_s=1.1, mc_run_s=0.25),
    # the only workload where the eta repair branch runs; 18 of the 20 data
    # seeds hit IndefiniteWeight, so the weighted MC loop would abort on the
    # first of them and the loop here is ordinary
    Workload("unobs-ui-weighted-short", "unobs-unknown-input", 100, "weighted",
             "unknown", "ordinary", op_s=0.19, mc_run_s=0.0022,
             op_seeds=tuple(range(20)), may_fail=True),
)}

SMOKE_TAU = {"obs-ltv-weighted": 40, "unobs-ui-weighted-short": 100}


class BenchError(RuntimeError):
    """An outcome the benchmark does not accept: the run itself fails."""


@dataclass
class Plan:
    tau: int
    op_seeds: list
    n_mc: int
    cold_starts: int        # per round


def plan(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> Plan:
    """Sizes of one run, from the costs the workload table records.

    The identify ops get OPS_SHARE of ``seconds`` (MIN_OPS..MAX_OPS ops, or
    whole passes over the workload's fixed seeds, so that the failed share
    is the same in every run) and the Monte-Carlo loop MC_SHARE.  A traced
    op also replays its calls, at about twice the cost, so a traced run
    makes half the ops (and at least one pass).
    """
    if smoke:
        return Plan(tau=SMOKE_TAU[w.name],
                    op_seeds=list(w.op_seeds or (seed, seed + 1)),
                    n_mc=MIN_MC, cold_starts=1)
    if w.op_seeds is not None:
        passes = max(1, round(OPS_SHARE * seconds / (len(w.op_seeds) * w.op_s)))
        seeds = list(w.op_seeds) * passes
    else:
        n_ops = min(MAX_OPS, max(MIN_OPS, round(OPS_SHARE * seconds / w.op_s)))
        seeds = [seed + i for i in range(n_ops)]
    n_mc = max(MIN_MC, len(seeds), round(MC_SHARE * seconds / w.mc_run_s))
    if trace and w.op_seeds is not None:
        seeds = list(w.op_seeds) * max(1, passes // 2)
    elif trace:
        seeds = seeds[:max(MIN_OPS, len(seeds) // 2)]
    return Plan(tau=w.tau, op_seeds=seeds, n_mc=n_mc, cold_starts=COLD_STARTS_PER_ROUND)


def _mode(w: Workload) -> str:
    return KNOWN_INPUT if w.input_mode == "known" else UNKNOWN_INPUT


# ---------------------------------------------------------------- identify ops

@dataclass
class OpOutcome:
    rc: int
    wall: float
    stderr: str
    ok: bool = True
    L: int | None = None
    alpha: np.ndarray | None = None
    cov: np.ndarray | None = None


def identify_argv(w: Workload, model_path, data_path, out_dir) -> list[str]:
    return ["identify", "--model", str(model_path), "--data", str(data_path),
            "--L", "auto", "--method", w.method, "--input-mode", w.input_mode,
            "--out", str(out_dir)]


def run_identify(argv: list[str]) -> OpOutcome:
    """One in-process ``mdmest identify``; the wall time covers only main()."""
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return OpOutcome(rc=rc, wall=wall, stderr=err.getvalue())


def judge_op(w: Workload, op: OpOutcome, out_dir: Path) -> bool:
    """True when the op passed; False for a counted IndefiniteWeight failure.

    Anything else (another exit code, a failure on a workload that must not
    fail, a non-finite estimate) raises BenchError.
    """
    if op.rc == 0:
        result = json.loads((out_dir / "identify_result.json").read_text())
        op.alpha = np.array(result["alpha_hat"], dtype=float)
        op.L = result["L"]
        if result["cov"] is not None:
            op.cov = np.array(result["cov"], dtype=float)
        if not np.all(np.isfinite(op.alpha)):
            raise BenchError(f"non-finite estimate {op.alpha}")
        return True
    if w.may_fail and op.rc == cli.EXIT_NUMERICAL and INDEFINITE_RE.search(op.stderr):
        return False
    raise BenchError(f"identify exited {op.rc}: {op.stderr.strip()[-400:]}")


def cold_start(w: Workload, argv: list[str], src: Path) -> float:
    """Seconds for ``import mdmest`` plus one identify op, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), str(src), json.dumps(argv)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"cold start failed: {proc.stderr.strip()[-400:]}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    judge_op(w, OpOutcome(rc=child["rc"], wall=child["setup_s"],
                          stderr=child["stderr"]), Path(argv[argv.index("--out") + 1]))
    return float(child["setup_s"])


# ------------------------------------------------------------------ replay

# the one span under replay.identify whose call cmd_identify does not make
MEASUREMENT_ONLY = "estimator.build_design"

def replay(w: Workload, tracer: Tracer, op_id: int, model_path, data_path,
           mem: dict | None) -> dict:
    """The public calls ``cmd_identify`` makes, in its order, each inside a span.

    They sit under one ``replay.identify`` span, together with one call
    ``cmd_identify`` does not make: ``build_design`` right after
    ``build_stacked_system`` on the same inputs, which splits geometry from
    residues.  ``build_augmented_block`` over the windows the estimator
    builds follows, outside that span.  When ``mem`` is given, assemble_p
    and weighted_mdm run once more under tracemalloc to record their peaks.
    """
    tol = Tolerance()
    mode = _mode(w)
    sp = tracer.span
    out: dict = {"failed": False}
    with sp("replay", op_id):
        with sp("replay.identify"):
            with sp("io.load_model"):
                bundle = mio.load_model(model_path)
            with sp("model.validate"):
                if not validate(bundle.model, bundle.structure).ok:
                    raise BenchError("the model file does not validate")
            with sp("io.read_data"):
                data = mio.read_data(data_path)
            model, structure = bundle.model, bundle.structure
            with sp("estimator.min_feasible_window"):
                L = min_feasible_window(model, mode, tol, n_records=len(data),
                                        structure=structure)
                if L is None:
                    L = min_feasible_window(model, mode, tol, n_records=len(data))
            with sp("estimator.build_stacked_system"):
                system = build_stacked_system(model, structure, data, L, mode, tol)
            with sp(MEASUREMENT_ONLY):
                build_design(model, structure, L, mode, tol,
                             n_windows=len(data) - L + 1)
            with sp("estimator.identifiability_report"):
                identifiability_report(system, tol)
            with sp("estimator.ordinary_mdm"):
                est = ordinary_mdm(system, tol)
            out["alpha_ordinary"] = est.alpha_hat
            out["alpha"] = est.alpha_hat
            if w.method == "weighted":
                with sp("estimator.gaussian_eta_covariances"):
                    etas = gaussian_eta_covariances(structure, est.alpha_hat,
                                                    system.L, tol=tol, repair=True)
                with sp("estimator.assemble_p"):
                    p_hat = assemble_p(system, etas)
                try:
                    with sp("estimator.weighted_mdm"):
                        out["alpha"] = weighted_mdm(system, p_hat, tol).alpha_hat
                except IndefiniteWeight:
                    out["failed"] = True
                    out["alpha"] = None
                out["repaired"] = etas.repaired
                out["p_mb"] = p_hat.nbytes / 2**20
        with sp("residue.window_blocks"):
            for k in range(len(data) - L + 1):
                build_augmented_block(model, k, L)
    out["rows"] = system.n_rows
    out["data"] = data
    out["model"] = model
    if mem is not None and w.method == "weighted":
        tracemalloc.start()
        try:
            p_hat = assemble_p(system, etas)
            _, assemble_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            try:
                weighted_mdm(system, p_hat, tol)
            except IndefiniteWeight:
                pass
            _, weighted_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mem["assemble_p_peak_mb"] = assemble_peak / 2**20
        mem["weighted_peak_mb"] = (weighted_peak - before) / 2**20
    return out


# ------------------------------------------------------------------ checks

def scalar_reference_ordinary(model, data: MeasurementData) -> np.ndarray:
    """Ordinary MDM for a scalar-state model with L=2 and a known input.

    The annihilator of window k is [h_{k+1} f_k, -h_k] / norm, so the residue,
    its expected square and the LS fit each take one line.
    """
    n = len(data)
    f = np.array([model.F[k][0, 0] for k in range(n - 1)])
    g = np.array([model.G[k][0, 0] for k in range(n - 1)])
    h = np.array([model.H[k][0, 0] for k in range(n)])
    z = np.array([zk[0] for zk in data.zs])
    u = np.array([uk[0] for uk in data.us])
    a1, a0 = h[1:] * f, -h[:-1]
    norm2 = a1 ** 2 + a0 ** 2
    obs = (a1 * z[:-1] + a0 * (z[1:] - h[1:] * g * u[:-1])) ** 2 / norm2
    design = np.column_stack([(h[:-1] * h[1:]) ** 2, norm2]) / norm2[:, None]
    return np.linalg.lstsq(design, obs, rcond=None)[0]


def check_scalar_reference(model, data, alpha_ordinary) -> str | None:
    ref = scalar_reference_ordinary(model, data)
    err = np.max(np.abs(ref - alpha_ordinary) / np.abs(ref))
    if not err <= SCALAR_REF_RTOL:
        return (f"ordinary estimate {alpha_ordinary} differs from the scalar "
                f"reference {ref} by relative {err:.2e}")
    return None


def check_zero_noise(w: Workload, spec, L: int, seed: int) -> str | None:
    """With alpha = 0 the residues vanish, so the estimate must vanish too.

    The residues must fall to roundoff against the measurements, and the
    estimate to ZERO_NOISE_RATIO of min|alpha_true|; on both presets over
    seeds 1-10 they were at most 8e-16 of max|z| and 1e-28 of it.
    """
    zero = np.zeros_like(spec.alpha_true)
    traj = simulate(spec.model, spec.structure, zero, spec.init,
                    input_signal=benchmarks.benchmark_input_signal(spec), seed=seed)
    if not np.any(traj.xs[0]):
        return "zero-noise check drew a zero initial state"
    system = build_stacked_system(spec.model, spec.structure,
                                  MeasurementData.from_trajectory(traj), L, _mode(w))
    z_max = max(np.max(np.abs(z)) for z in traj.zs)
    residue = np.sqrt(np.max(np.abs(system.obs))) / z_max
    alpha = ordinary_mdm(system).alpha_hat
    ratio = np.max(np.abs(alpha)) / np.min(np.abs(spec.alpha_true))
    if not (residue <= ZERO_NOISE_RESIDUE and ratio <= ZERO_NOISE_RATIO):
        return (f"zero-noise residues are {residue:.2e} of max|z| and the "
                f"estimate {alpha} is {ratio:.2e} of min|alpha_true|")
    return None


def check_mc_mean(w: Workload, spec, res) -> str | None:
    """Sample mean within c standard errors of alpha_true.

    c is the Bonferroni-corrected two-sided Student-t quantile for a
    family-wise false-alarm rate MEAN_CHECK_FALSE_ALARM over the parameters.
    """
    n, k = res.n_mc, spec.alpha_true.size
    c = float(scipy.special.stdtrit(n - 1, 1.0 - MEAN_CHECK_FALSE_ALARM / (2 * k)))
    se = np.sqrt(res.sample_cov_diag / n)
    allowance = OBS_LTV_WEIGHTED_BIAS if (
        w.mc_method == "weighted" and w.preset == "obs-ltv") else 0.0
    dev = np.abs(res.sample_mean - spec.alpha_true)
    if not np.all(np.isfinite(res.estimates)) or not np.all(dev <= c * se + allowance):
        return (f"MC mean {res.sample_mean} is not within {c:.2f} SE {se} "
                f"(+ allowance {allowance}) of alpha_true {spec.alpha_true}")
    if res.mean_est_cov_diag is not None and not np.all(res.mean_est_cov_diag > 0):
        return f"MC mean estimated variance {res.mean_est_cov_diag} is not positive"
    return None


def check_cov(w: Workload, op: OpOutcome) -> str | None:
    if w.method != "weighted" or not op.ok:
        return None
    if op.cov is None:
        return "weighted op returned no cov"
    if not (np.array_equal(op.cov, op.cov.T) and np.all(np.diag(op.cov) > 0)):
        return f"weighted cov is not symmetric with a positive diagonal: {op.cov}"
    return None


def check_mc_agreement(op_alphas: list, res) -> str | None:
    """Identify op i used data seed seed+i, as MC run i did."""
    for i, alpha in enumerate(op_alphas):
        mc = res.estimates[i]
        scale = np.maximum(np.abs(alpha), np.abs(mc))
        if not np.all(np.abs(alpha - mc) <= MC_AGREE_RTOL * scale):
            return f"op {i}: identify {alpha} vs run_mc {mc}"
    return None


# ------------------------------------------------------------------ the run

def merge_mc(parts: list) -> benchmarks.McResult:
    """The result one run_mc call over the runs of consecutive ``parts`` gives."""
    est = np.vstack([r.estimates for r in parts])
    n = len(est)
    ecov = None
    if parts[0].mean_est_cov_diag is not None:
        ecov = sum(r.mean_est_cov_diag * r.n_mc for r in parts) / n
    return benchmarks.McResult(
        estimates=est, sample_mean=est.mean(axis=0),
        sample_cov_diag=est.var(axis=0, ddof=1), mean_est_cov_diag=ecov,
        wall_time_per_run=sum(r.wall_time_per_run * r.n_mc for r in parts) / n,
        method=parts[0].method, n_mc=n)


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool,
        src: Path, work: Path, log) -> dict:
    """One run of workload ``w``; returns the result object of the run."""
    p = plan(w, seed, seconds, trace, smoke)
    tracer = Tracer()
    # an untraced run records no spans
    span = tracer.span if trace else (lambda *_: contextlib.nullcontext())
    spec = benchmarks.preset(w.preset, tau=p.tau, n_mc=p.n_mc, seed=seed)
    model_path = work / "model.json"
    mio.save_model(model_path, spec.model, spec.structure, spec.alpha_true, spec.init)
    u_sim = benchmarks.benchmark_input_signal(spec)
    paths: dict = {}
    for s in dict.fromkeys(p.op_seeds):
        with span("model.simulate"):
            traj = simulate(spec.model, spec.structure, spec.alpha_true, spec.init,
                            input_signal=u_sim, seed=s)
        paths[s] = work / f"data-{s}.jsonl"
        mio.write_data(paths[s], MeasurementData.from_trajectory(traj))
    data_paths = [paths[s] for s in p.op_seeds]

    argvs = [identify_argv(w, model_path, d, work / f"out-{i}")
             for i, d in enumerate(data_paths)]
    warm = run_identify(identify_argv(w, model_path, data_paths[0], work / "out-warm"))
    judge_op(w, warm, work / "out-warm")
    # the window length --L gave the op; a failed op reports none, and for
    # these presets --L auto chooses the preset's own L
    L = warm.L or spec.L

    problems: list[str] = []
    ops: list[OpOutcome] = []
    replays: list[dict] = []
    mem: dict = {}
    cli_walls: dict = {}

    def identify(i: int) -> None:
        with span("cli.identify", i):
            op = run_identify(argvs[i])
        op.ok = judge_op(w, op, work / f"out-{i}")
        ops.append(op)
        cli_walls[i] = op.wall
        problems.append(check_cov(w, op))
        if not trace:
            return
        with contextlib.redirect_stderr(_io.StringIO()):
            rep = replay(w, tracer, i, model_path, data_paths[i],
                         mem if i == 0 else None)
        replays.append(rep)
        if rep["failed"] == op.ok:
            problems.append(f"op {i}: replay failed={rep['failed']} but the "
                            f"identify op exited {op.rc}")
        elif op.ok and not np.array_equal(rep["alpha"], op.alpha):
            problems.append(f"op {i}: replay {rep['alpha']} is not bit-identical "
                            f"to identify {op.alpha}")
        if w.preset == "obs-ltv":
            problems.append(check_scalar_reference(rep["model"], rep["data"],
                                                   rep["alpha_ordinary"]))

    setups: list[float] = []
    parts = []
    mc_wall = 0.0
    op_rounds = np.array_split(np.arange(len(argvs)), ROUNDS)
    mc_rounds = np.array_split(np.arange(p.n_mc), ROUNDS)
    for op_ids, runs in zip(op_rounds, mc_rounds):
        if not trace:
            setups += [cold_start(w, argvs[0], src) for _ in range(p.cold_starts)]
        for i in op_ids:
            identify(int(i))
        # run i of every round still uses data seed seed + i
        with span("benchmarks.run_mc"):
            t0 = time.perf_counter()
            parts.append(benchmarks.run_mc(replace(spec, seed=seed + int(runs[0])),
                                           w.mc_method, n_mc=len(runs), workers=1))
            mc_wall += time.perf_counter() - t0
    res = merge_mc(parts)
    problems.append(check_mc_mean(w, spec, res))
    if w.mc_method == w.method:
        problems.append(check_mc_agreement([op.alpha for op in ops], res))
    problems.append(check_zero_noise(w, spec, L, seed))
    if w.preset == "obs-ltv" and not trace:
        data = mio.read_data(data_paths[0])
        system = build_stacked_system(spec.model, spec.structure, data, L,
                                      _mode(w))
        problems.append(check_scalar_reference(spec.model, data,
                                               ordinary_mdm(system).alpha_hat))
    problems = [q for q in problems if q]
    for q in problems:
        print(f"check failed: {q}", file=sys.stderr)

    attempted = len(ops)
    failed = sum(not op.ok for op in ops)
    log(f"workload {w.name}: tau={p.tau} method={w.method} --L auto "
        f"input-mode={w.input_mode} seed={seed} ops={attempted} failed={failed} "
        f"mc={w.mc_method} n_mc={p.n_mc} trace={int(trace)}")
    if not trace:
        metrics = {
            "identify_s": (_median([op.wall for op in ops]), "s"),
            "mc_runs_per_s": (res.n_mc / mc_wall, "runs/s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
    else:
        metrics = layer_metrics(w, tracer, replays, cli_walls, mem, res)
        trace_path = work.parent / f"trace-{w.name}-seed{seed}.json"
        tracer.dump(trace_path)
        log(f"spans written to {trace_path}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def layer_metrics(w, tracer: Tracer, replays, cli_walls, mem, res) -> dict:
    """Per-layer metrics: medians over ops of span durations, and counts."""
    def med(name):
        return _median(list(tracer.by_op(name).values()))

    stacked = tracer.by_op("estimator.build_stacked_system")
    design = tracer.by_op(MEASUREMENT_ONLY)
    loads, reads = tracer.by_op("io.load_model"), tracer.by_op("io.read_data")
    identify_spans = [s for s in tracer.spans if s["name"] == "replay.identify"]
    cli_overhead = [cli_walls[s["op"]] - sum(
        c["end"] - c["start"] for c in tracer.spans
        if c["parent"] == s["id"] and c["name"] != MEASUREMENT_ONLY)
        for s in identify_spans]
    weighted = w.method == "weighted"
    return {
        "model.simulate_s": (_median(tracer.durations("model.simulate")), "s"),
        "io.read_s": (_median([loads[i] + reads[i] for i in loads]), "s"),
        "residue.window_blocks_s": (med("residue.window_blocks"), "s"),
        "estimator.select_L_s": (med("estimator.min_feasible_window"), "s"),
        "estimator.build_design_s": (med(MEASUREMENT_ONLY), "s"),
        "estimator.residues_s": (_median([stacked[i] - design[i] for i in stacked]), "s"),
        "estimator.identifiability_s": (med("estimator.identifiability_report"), "s"),
        "estimator.ordinary_s": (med("estimator.ordinary_mdm"), "s"),
        "estimator.eta_s": (med("estimator.gaussian_eta_covariances"), "s"),
        "estimator.assemble_p_s": (med("estimator.assemble_p"), "s"),
        "estimator.weighted_s": (med("estimator.weighted_mdm"), "s"),
        "estimator.p_mb": (replays[0]["p_mb"] if weighted else 0.0, "MiB"),
        "estimator.assemble_p_peak_mb": (mem.get("assemble_p_peak_mb", 0.0), "MiB"),
        "estimator.weighted_peak_mb": (mem.get("weighted_peak_mb", 0.0), "MiB"),
        "estimator.rows": (replays[0]["rows"], "rows"),
        "estimator.repaired_ops": (sum(bool(r.get("repaired")) for r in replays), "count"),
        "benchmarks.identify_per_run_s": (res.wall_time_per_run, "s"),
        "cli.overhead_s": (_median(cli_overhead), "s"),
        "trace.overhead_s": (_median([tracer.self_time(s) for s in identify_spans]), "s"),
    }
