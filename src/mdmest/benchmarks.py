"""Benchmark presets and the Monte-Carlo experiment harness.

Three stock models exercise the estimator across the regimes it targets:

* ``clock-ensemble``   unobservable LTI model, without an input, of three
                       two-state clocks measured through pairwise phase
                       differences; eight covariance parameters spanning
                       many decades.
* ``unobs-unknown-input``  unobservable LTV model identified without access
                       to the input sequence.
* ``obs-ltv``          small observable LTV model where both the ordinary
                       and the weighted solver are cheap enough to compare.

``run_mc`` repeats simulate-then-identify cycles with per-run seeds
(seed + run index) and reports sample statistics of the estimates.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .estimator import BRANCHES, build_design, ordinary_estimates, weighted_estimates
from .errors import DataError, MdmError
from .linalg import Tolerance, DEFAULT_TOL
from .model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    InitialCondition,
    LtvModel,
    NoiseStructure,
    simulate_runs,
)

__all__ = ["BenchmarkSpec", "McResult", "PRESET_NAMES", "preset", "sine_input",
           "benchmark_input_signal", "run_mc", "emit_table", "emit_plot_data"]

PRESET_NAMES = ("clock-ensemble", "unobs-unknown-input", "obs-ltv")

# Monte-Carlo runs are simulated in chunks of as many runs as keep each of
# the chunk's (runs, tau+1, width) arrays within _CHUNK_ELEMENTS floats
# (256 KiB); their residues are formed, and their estimates solved, for as
# many runs at a time as fit the same bound in a (runs, n_rows) array, and
# weighted in assemble_p's (runs, b+1, m) bands.  No run count caps a chunk:
# simulate_runs' per-run work is one generator's draws, and a larger chunk
# spreads its per-step loop over more runs.  The chunk's drawn normals,
# about n_v + n_w wide, are not counted: they can hold up to twice the bound
# until the noises are formed, so a chunk's simulation peaks at about twice it
_CHUNK_ELEMENTS = 2 ** 15


@dataclass
class BenchmarkSpec:
    """A stock benchmark: model, noise structure, true alpha, the L and input
    mode it is identified with, n_mc runs of seeds seed, seed + 1, ...; tau
    is the model's horizon."""

    name: str
    model: LtvModel
    structure: NoiseStructure
    alpha_true: np.ndarray
    L: int
    mode: str
    n_mc: int
    seed: int
    init: InitialCondition

    @property
    def tau(self) -> int:
        return self.model.tau


@dataclass
class McResult:
    estimates: np.ndarray               # (n_mc, n_alpha)
    sample_mean: np.ndarray
    sample_cov_diag: np.ndarray
    mean_est_cov_diag: np.ndarray | None
    wall_time_per_run: float
    method: str
    n_mc: int
    # weighted runs per solve branch (estimator.BRANCHES) and "psd-repaired",
    # the runs whose first pass was projected onto the PSD cone
    weighted_branches: dict[str, int] | None = None


def _clock_ensemble(tau: int, n_mc: int, seed: int) -> BenchmarkSpec:
    ts = 10.0
    f_cell = np.array([[1.0, ts], [0.0, 1.0]])
    wiener = np.array([[ts ** 3 / 3.0, ts ** 2 / 2.0], [ts ** 2 / 2.0, ts]])
    white = np.array([[ts, 0.0], [0.0, 0.0]])
    model = LtvModel.create(
        n_x=6, n_w=6, n_v=2, tau=tau,
        F=np.kron(np.eye(3), f_cell),
        E=np.eye(6),
        H=np.array([[1.0, 0.0, -1.0, 0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0, 0.0, -1.0, 0.0]]),
        D=np.eye(2),
    )
    zero2 = np.zeros((2, 2))
    zero6 = np.zeros((6, 6))
    pairs = []
    # Two-state clock model (phase, frequency), per clock in alpha order:
    # q1 (white FM) multiplies `white`, q2 (random-walk FM) multiplies the
    # integrated-Wiener block `wiener` (Zucca & Tavella, IEEE TUFFC 2005).
    for clock in range(3):
        sel = np.zeros((3, 3))
        sel[clock, clock] = 1.0
        pairs.append((np.kron(sel, white), zero2))
        pairs.append((np.kron(sel, wiener), zero2))
    pairs.append((zero6, np.diag([1.0, 0.0])))
    pairs.append((zero6, np.diag([0.0, 1.0])))
    alpha = 1e-19 * np.array([6.0, 0.05, 20.0, 0.3, 7.0, 0.04, 80.0, 100.0])
    return BenchmarkSpec(
        name="clock-ensemble", model=model,
        structure=NoiseStructure.from_pairs(pairs), alpha_true=alpha,
        L=10, mode=KNOWN_INPUT, n_mc=n_mc, seed=seed,
        init=InitialCondition.default(6),
    )


def _unobs_unknown_input(tau: int, n_mc: int, seed: int) -> BenchmarkSpec:
    g_seq = [np.array([[0.0], [np.sin(10.0 * k / tau)], [1.0]])
             for k in range(tau + 1)]
    model = LtvModel.create(
        n_x=3, n_w=3, n_v=3, tau=tau,
        F=np.array([[1.0, 2.0, 1.0], [0.0, -1.01, 2.0], [0.0, 0.0, 1.0]]),
        G=g_seq,
        E=np.array([[-3.0, 2.0, 0.0], [2.0, 2.0, 2.0], [5.0, 0.0, 1.0]]),
        H=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 1.0, 1.0]]),
        D=np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, -1.0]]),
    )
    zero3 = np.zeros((3, 3))
    pairs = [
        (np.eye(3), zero3),
        (np.diag([0.0, 1.0, 1.0]), zero3),
        (np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]]), zero3),
        (zero3, np.diag([1.0, 0.0, 1.0])),
        (zero3, np.diag([0.0, 2.0, 0.0])),
        (zero3, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])),
    ]
    alpha = np.array([1.0, 1.0, -1.0, 2.0, 2.0, 1.0])
    return BenchmarkSpec(
        name="unobs-unknown-input", model=model,
        structure=NoiseStructure.from_pairs(pairs), alpha_true=alpha,
        L=2, mode=UNKNOWN_INPUT, n_mc=n_mc, seed=seed,
        init=InitialCondition.default(3),
    )


def _obs_ltv(tau: int, n_mc: int, seed: int) -> BenchmarkSpec:
    """H_k = 1 + 0.99 sin(100 pi k / tau) is 1 at every k when 100/tau is an
    integer (tau 20, 25, 50, 100): the measurement map is then constant and
    the design ill-conditioned (cond 29.6, against 2.0-2.4 at tau 30-300)."""
    f_seq = [np.array([[0.8 - 0.1 * np.sin(7.0 * np.pi * k / tau)]])
             for k in range(tau + 1)]
    h_seq = [np.array([[1.0 + 0.99 * np.sin(100.0 * np.pi * k / tau)]])
             for k in range(tau + 1)]
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    model = LtvModel.create(n_x=1, n_w=1, n_v=1, tau=tau,
                            F=f_seq, G=one, E=one, H=h_seq, D=one)
    structure = NoiseStructure.from_pairs([(one, zero), (zero, one)])
    return BenchmarkSpec(
        name="obs-ltv", model=model, structure=structure,
        alpha_true=np.array([2.0, 1.0]),
        L=2, mode=KNOWN_INPUT, n_mc=n_mc, seed=seed,
        init=InitialCondition.default(1),
    )


_PRESETS = {
    "clock-ensemble": _clock_ensemble,
    "unobs-unknown-input": _unobs_unknown_input,
    "obs-ltv": _obs_ltv,
}


def preset(name: str, *, tau: int = 1000, n_mc: int = 500, seed: int = 0) -> BenchmarkSpec:
    """Stock benchmark by name; tau / n_mc / seed are desk-scale defaults.
    An unknown name, or a horizon tau below 1, raises ValueError."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset '{name}'; choose from {PRESET_NAMES}")
    if tau < 1:
        raise ValueError(f"preset horizon tau={tau}; it must be at least 1")
    return _PRESETS[name](tau, n_mc, seed)


def sine_input(tau: int) -> np.ndarray:
    """u_k = sin(k / tau), k = 0..tau, one scalar step per row (u_0 = 0 at
    tau = 0): ``mdmest simulate --input-signal sine``'s input."""
    return np.sin(np.arange(tau + 1) / max(tau, 1))[:, None]


def benchmark_input_signal(spec: BenchmarkSpec) -> np.ndarray | None:
    """``sine_input`` over the horizon, applied by every benchmark run of a
    model with an input; None for a model without one."""
    return sine_input(spec.tau) if spec.model.has_input else None


def _chunk_sizes(spec: BenchmarkSpec, design,
                 method: str = "ordinary") -> tuple[int, int]:
    """Runs simulated together, and runs estimated together: as many as
    keep each (runs, tau+1, width) array of the simulation (width the
    largest of n_x, n_w, n_v and n_z), and the (runs, n_rows) squared
    residues (weighted: the (runs, b+1, m) weight bands of
    ``design.weight_band_shape``), within _CHUNK_ELEMENTS floats, and at
    least one."""
    model = spec.model
    width = max(model.n_x, model.n_w, model.n_v, int(model.n_z_steps().max()))
    rows = (int(np.prod(design.weight_band_shape)) if method == "weighted"
            else design.n_rows)
    return tuple(max(1, _CHUNK_ELEMENTS // per_run)
                 for per_run in ((model.tau + 1) * width, rows))


def _failed(exc: MdmError, seed: int) -> MdmError:
    exc.args = (f"run with seed {seed} failed: {exc}",)
    return exc


def _estimate_runs(design, method, z, u, seeds, alphas, ecovs, branches):
    """Estimates of the runs whose measurement records are the rows of ``z``
    (seeds ``seeds``), written to the rows of ``alphas`` and ``ecovs``;
    weighted runs are counted into ``branches``, a run whose first pass is
    projected onto the PSD cone as "psd-repaired" (``weighted_estimates``
    reports the projection and does not warn of it).

    One ``residues`` call gives all their squared residues, and one
    ``ordinary_estimates`` or ``weighted_estimates`` call all their
    estimates.  When a run's records are not finite, the runs before it are
    identified first, as one run at a time would, and may fail first.
    """
    failure = None
    try:
        obs = design.residues(z, u)
    except DataError as exc:
        failure = exc
        obs = design.residues(z[:exc.run], u)
    if len(obs):
        try:
            if method == "ordinary":
                alphas[:len(obs)] = ordinary_estimates(design, obs)
            else:
                runs = weighted_estimates(design, obs)
                alphas[:len(obs)] = runs.alpha_hat
                ecovs[:len(obs)] = np.diagonal(runs.cov, axis1=1, axis2=2)
                for name in BRANCHES:
                    branches[name] += int(np.count_nonzero(runs.branch == name))
                branches["psd-repaired"] += int(np.count_nonzero(runs.repaired))
        except MdmError as exc:
            # a run's own failure names it; a design without full rank
            # fails every run, as the first
            raise _failed(exc, seeds[exc.run or 0])
    if failure is not None:
        raise _failed(failure, seeds[failure.run])


def _run_range(spec: BenchmarkSpec, method: str, indices, tol: Tolerance):
    """Identify runs ``indices``; the design is built once for all of them.

    The runs are simulated a chunk at a time (``simulate_runs``) and
    identified from the chunk's measurement records (``_estimate_runs``),
    with no per-run trajectory or record list.  Every estimate is bitwise
    the per-run pipeline's.
    """
    design = build_design(spec.model, spec.structure, spec.L, spec.mode, tol)
    u_sim = benchmark_input_signal(spec)

    alphas = np.empty((len(indices), spec.structure.n_alpha))
    ecovs = branches = None
    if method == "weighted":
        ecovs = np.empty_like(alphas)
        branches = dict.fromkeys(BRANCHES + ("psd-repaired",), 0)
    elapsed = 0.0
    sim_size, res_size = _chunk_sizes(spec, design, method)
    for start in range(0, len(indices), sim_size):
        seeds = [spec.seed + int(i) for i in indices[start:start + sim_size]]
        runs = simulate_runs(spec.model, spec.structure, spec.alpha_true, spec.init,
                             input_signal=u_sim, seeds=seeds)
        z, u = runs.z, runs.u
        del runs                        # only the records are estimated from
        chunk = slice(start, start + len(seeds))
        for first in range(0, len(seeds), res_size):
            part = slice(first, first + res_size)
            t0 = time.perf_counter()
            _estimate_runs(design, method, z[part], u, seeds[part], alphas[chunk][part],
                           None if ecovs is None else ecovs[chunk][part], branches)
            elapsed += time.perf_counter() - t0
        del z                           # freed before the next chunk is simulated
    return alphas, ecovs, elapsed, branches


def run_mc(spec: BenchmarkSpec, method: str = "ordinary",
           n_mc: int | None = None, workers: int = 1,
           tol: Tolerance = DEFAULT_TOL) -> McResult:
    """Monte-Carlo evaluation: n_mc simulate-identify cycles, seeds seed+i.

    Statistics are computed from the estimates in run-index order, so results
    are deterministic for a fixed spec and seed regardless of worker count.
    The runs are split into min(workers, n_mc) chunks of consecutive runs,
    whose estimates, branch counts and times are merged in order; a process
    pool is started only for more than one chunk.
    """
    if method not in ("ordinary", "weighted"):
        raise ValueError("method must be 'ordinary' or 'weighted'")
    n_mc = spec.n_mc if n_mc is None else int(n_mc)
    if n_mc < 1:
        raise ValueError(f"n_mc must be at least 1, got {n_mc}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    chunks = np.array_split(np.arange(n_mc), min(workers, n_mc))
    n = len(chunks)
    args = (_run_range, [spec] * n, [method] * n, chunks, [tol] * n)
    if n > 1:
        # the process pool is loaded here, not by ``import mdmest``
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = list(pool.map(*args))
    else:
        parts = list(map(*args))
    alphas = np.vstack([p[0] for p in parts])
    ecovs = branches = None
    if method == "weighted":
        ecovs = np.vstack([p[1] for p in parts])
        branches = {name: sum(p[3][name] for p in parts) for name in parts[0][3]}
    elapsed = sum(p[2] for p in parts)
    return McResult(
        estimates=alphas,
        sample_mean=alphas.mean(axis=0),
        sample_cov_diag=alphas.var(axis=0, ddof=1) if n_mc > 1 else np.zeros(alphas.shape[1]),
        mean_est_cov_diag=ecovs.mean(axis=0) if ecovs is not None else None,
        wall_time_per_run=elapsed / n_mc,
        method=method,
        n_mc=n_mc,
        weighted_branches=branches,
    )


def _table_rows(result: McResult, spec: BenchmarkSpec):
    rows = []
    for i in range(spec.alpha_true.size):
        row = {
            "param": f"alpha_{i + 1}",
            "true": spec.alpha_true[i],
            "s_mean": result.sample_mean[i],
            "s_cov": result.sample_cov_diag[i],
        }
        if result.mean_est_cov_diag is not None:
            row["est_cov"] = result.mean_est_cov_diag[i]
        rows.append(row)
    return rows


def emit_table(result: McResult, spec: BenchmarkSpec, out_dir) -> tuple[str, str]:
    """Write `<name>_<method>_table.txt` and `.csv` under out_dir.

    The volatile wall-clock value appears only in the text table; the CSV
    keeps a label-only runtime footer so reruns are byte-identical.
    """
    rows = _table_rows(result, spec)
    columns = list(rows[0].keys())
    txt_path = f"{out_dir}/{spec.name}_{result.method}_table.txt"
    csv_path = f"{out_dir}/{spec.name}_{result.method}_table.csv"

    widths = {c: max(len(c), 14) for c in columns}
    lines = [f"{spec.name}  method={result.method}  n_mc={result.n_mc}"]
    lines.append("  ".join(f"{c:>{widths[c]}}" for c in columns))
    for row in rows:
        cells = [f"{row['param']:>{widths['param']}}"]
        cells += [f"{row[c]:>{widths[c]}.6e}" for c in columns[1:]]
        lines.append("  ".join(cells))
    if result.weighted_branches is not None:
        lines.append("weighted_branches  " + "  ".join(
            f"{name} {count}" for name, count in result.weighted_branches.items()))
    lines.append(f"runtime_per_run_s  {result.wall_time_per_run:.6e}")
    with open(txt_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row["param"]] + [f"{row[c]:.12e}" for c in columns[1:]])
        writer.writerow(["runtime_per_run_s"] + [""] * (len(columns) - 1))
    return txt_path, csv_path


def emit_plot_data(result: McResult, spec: BenchmarkSpec, out_dir) -> str:
    """Write `<name>_<method>_runs.csv`: true values plus one row per run."""
    path = f"{out_dir}/{spec.name}_{result.method}_runs.csv"
    header = ["run"] + [f"alpha_{i + 1}" for i in range(spec.alpha_true.size)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerow(["true"] + [repr(float(v)) for v in spec.alpha_true])
        for i, est in enumerate(result.estimates):
            writer.writerow([str(i)] + [repr(float(v)) for v in est])
    return path
