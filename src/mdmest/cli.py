"""Command-line interface.

Subcommands: identify, simulate, benchmark, identifiability.  Exit codes:
0 success, 2 usage, 3 validation, 4 numerical (rank / annihilator / weight),
5 I/O.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .benchmarks import (PRESET_NAMES, emit_plot_data, emit_table, preset, run_mc,
                         sine_input)
from .errors import DataError, MdmError, RankDeficientDesign, ValidationError
from .estimator import (
    build_design,
    feasible_design,
    ordinary_mdm,
    weighted_pipeline,
)
from .linalg import DEFAULT_TOL, Tolerance
from .model import (
    KNOWN_INPUT,
    UNKNOWN_INPUT,
    LtvModel,
    MatrixSequence,
    assemble_qr,
    simulate,
    validate,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5


def _int_at_least(minimum: int):
    """argparse type: an int no smaller than ``minimum`` (argparse names the
    flag when it rejects one)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"              # argparse's message for a non-integer
    return parse


def _window_length(text: str):
    """argparse type: 'auto' or a window length of at least 1 (argparse
    names the flag when it rejects one)."""
    return text if text == "auto" else _int_at_least(1)(text)


_window_length.__name__ = "window length"   # argparse's message for a non-integer


def _tolerance_value(text: str) -> float:
    """argparse type: a finite nonnegative float, as ``Tolerance`` takes
    (argparse names the flag when it rejects one)."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and nonnegative, got {text}")
    return value


_tolerance_value.__name__ = "float"     # argparse's message for a non-number


def _mode(args) -> str:
    return KNOWN_INPUT if args.input_mode == "known" else UNKNOWN_INPUT


def _resolve_l(args, model, structure, mode, tol, n_records):
    """The design of window length ``--L`` for ``n_records`` records; for
    ``--L auto``, ``feasible_design``'s (full rank first, else highest rank)."""
    if args.L != "auto":
        return build_design(model, structure, args.L, mode, tol,
                            n_windows=n_records - args.L + 1)
    return feasible_design(model, structure, mode, tol, n_records=n_records)


def _with_tau(model: LtvModel, tau: int) -> LtvModel:
    if tau == model.tau:
        return model
    if tau > model.tau:
        raise ValidationError(
            [f"requested tau={tau} exceeds the model horizon {model.tau}"]
        )

    def cut(seq):
        if seq.is_constant:
            return seq
        return MatrixSequence([seq[k] for k in range(tau + 1)], tau)

    return LtvModel(n_x=model.n_x, n_w=model.n_w, n_v=model.n_v, tau=tau,
                    F=cut(model.F), G=cut(model.G), E=cut(model.E),
                    H=cut(model.H), D=cut(model.D))


def _load_model(path, simulating: bool = False) -> io.ModelBundle:
    """The model file at ``path``, which must validate (and, ``simulating``,
    carry 'alpha_true', checked first); else ValidationError."""
    bundle = io.load_model(path)
    if simulating and bundle.alpha_true is None:
        raise ValidationError(["model file has no 'alpha_true'; cannot simulate"])
    report = validate(bundle.model, bundle.structure)
    if not report.ok:
        raise ValidationError(report.findings)
    return bundle


def _print_identifiability(design) -> None:
    print(f"identifiability: L={design.L}, rank {design.rank} of {design.n_alpha} "
          f"parameters (threshold {design.rank_threshold:.3e})")
    if design.null_basis is not None:
        print("unidentifiable directions (orthonormal basis columns):")
        for row, score in zip(design.null_basis, design.participation):
            cells = "  ".join(f"{v: .4e}" for v in row)
            print(f"  [{cells}]  participation {score:.3f}")


def cmd_identify(args) -> int:
    bundle = _load_model(args.model)
    data = io.read_data(args.data)
    tol = Tolerance(rank_tol=args.rank_tol)
    mode = _mode(args)
    t0 = time.perf_counter()
    sys_full = _resolve_l(args, bundle.model, bundle.structure, mode, tol,
                          n_records=len(data)).with_data(data)
    logger.info("identify: L=%d, %d windows, %d rows, design rank %d of %d",
                sys_full.L, sys_full.n_windows, sys_full.n_rows, sys_full.rank,
                sys_full.n_alpha)
    try:
        if args.method == "ordinary":
            est = ordinary_mdm(sys_full)
        else:
            est = weighted_pipeline(sys_full)
    except RankDeficientDesign:
        _print_identifiability(sys_full)
        raise
    wall = time.perf_counter() - t0
    logger.debug("identify: %s estimate in %.3f s, diagnostics %s", est.method, wall,
                 est.diagnostics)

    q_hat, r_hat = assemble_qr(bundle.structure, est.alpha_hat)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "alpha_hat": est.alpha_hat.tolist(),
        "Q_hat": q_hat.tolist(),
        "R_hat": r_hat.tolist(),
        "method": est.method,
        "L": sys_full.L,
        "input_mode": args.input_mode,
        "cov": est.cov.tolist() if est.cov is not None else None,
        "identifiability": {
            "rank": sys_full.rank,
            "n_alpha": sys_full.n_alpha,
            "threshold": sys_full.rank_threshold,
            "participation": (sys_full.participation.tolist()
                              if sys_full.null_basis is not None else None),
        },
        "tolerances": {"rank_tol": tol.rank_tol},
    }
    result_path = out_dir / "identify_result.json"
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "identify_result.meta.json", "w") as fh:
        json.dump({"wall_time_s": wall}, fh)
        fh.write("\n")

    print(f"method: {est.method}   L={sys_full.L}   mode={args.input_mode}")
    _print_identifiability(sys_full)
    print(f"{'param':>10} {'alpha_hat':>16}")
    for i, v in enumerate(est.alpha_hat):
        print(f"{'alpha_' + str(i + 1):>10} {v:>16.6e}")
    print(f"result written to {result_path}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = _load_model(args.model, simulating=True)
    model = bundle.model if args.tau is None else _with_tau(bundle.model, args.tau)

    u = None
    if args.input_signal != "none" and model.has_input:
        n_u = model.n_u_steps()
        if args.input_signal == "sine":
            if (n_u != 1).any():
                raise ValidationError(
                    ["the sine input signal needs a scalar input; use "
                     "--input-signal zero or none"])
            u = sine_input(model.tau)
        else:
            u = [np.zeros(n) for n in n_u.tolist()]
    traj = simulate(model, bundle.structure, bundle.alpha_true, bundle.init,
                    input_signal=u, seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.jsonl"
    io.write_data(data_path, traj)
    with open(out_dir / "data.meta.json", "w") as fh:
        json.dump({"seed": args.seed, "model": str(args.model),
                   "tau": model.tau, "input_signal": args.input_signal}, fh)
        fh.write("\n")
    print(f"wrote {model.tau + 1} records to {data_path}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    spec = preset(args.preset, tau=args.tau, n_mc=args.n_mc, seed=args.seed)
    if args.preset == "clock-ensemble" and args.method == "weighted":
        print("note: weighted identification on the clock ensemble is expensive",
              file=sys.stderr)
    result = run_mc(spec, args.method, workers=args.workers,
                    tol=Tolerance(rank_tol=args.rank_tol))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    txt_path, _ = emit_table(result, spec, out_dir)
    emit_plot_data(result, spec, out_dir)
    print(Path(txt_path).read_text(), end="")
    return EXIT_OK


def cmd_identifiability(args) -> int:
    bundle = _load_model(args.model)
    tol = Tolerance(rank_tol=args.rank_tol)
    _print_identifiability(_resolve_l(args, bundle.model, bundle.structure, _mode(args),
                                      tol, n_records=bundle.model.tau + 1))
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="mdmest",
        description="Noise covariance identification for linear state-space models",
    )
    parser.add_argument("--log-level", choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        default="WARNING",
                        help="least severe log record shown on stderr "
                             "(default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    shared = {"--rank-tol": dict(type=_tolerance_value, default=DEFAULT_TOL.rank_tol, help=(
                  "a singular value counts towards a rank when above rank_tol * "
                  "sigma_max * max(rows, cols), so above 1/rows a matrix of that many "
                  "rows has rank 0; the weighted first pass projects its Q and R when "
                  "an n x n one has an eigenvalue below -rank_tol * n * max(1, largest "
                  "|eigenvalue| of Q and R) (default %(default)s)")),
              "--out": dict(default=".", help="output directory")}

    def add_shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p_id = sub.add_parser("identify", help="estimate Q/R parameters from data")
    p_id.add_argument("--model", required=True)
    p_id.add_argument("--data", required=True)
    p_id.add_argument("--L", type=_window_length, default="auto",
                      help="window length or 'auto'")
    p_id.add_argument("--method", choices=("ordinary", "weighted"),
                      default="ordinary")
    p_id.add_argument("--input-mode", choices=("known", "unknown"),
                      default="known")
    add_shared(p_id, "--rank-tol", "--out")
    p_id.set_defaults(func=cmd_identify)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory to a data file")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--tau", type=_int_at_least(0), default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--input-signal", choices=("sine", "zero", "none"),
                       default="sine")
    add_shared(p_sim, "--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="run a Monte-Carlo benchmark")
    p_bench.add_argument("preset", choices=PRESET_NAMES)
    p_bench.add_argument("--method", choices=("ordinary", "weighted"),
                         default="ordinary")
    p_bench.add_argument("--n-mc", type=_int_at_least(1), default=500)
    p_bench.add_argument("--tau", type=_int_at_least(1), default=1000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--workers", type=_int_at_least(1), default=1)
    add_shared(p_bench, "--rank-tol", "--out")
    p_bench.set_defaults(func=cmd_benchmark)

    p_ident = sub.add_parser("identifiability",
                             help="rank analysis of the design matrix (no data needed)")
    p_ident.add_argument("--model", required=True)
    p_ident.add_argument("--L", type=_window_length, default="auto")
    p_ident.add_argument("--input-mode", choices=("known", "unknown"),
                         default="known")
    add_shared(p_ident, "--rank-tol")
    p_ident.set_defaults(func=cmd_identifiability)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    logging.getLogger(__package__).setLevel(args.log_level)
    try:
        return args.func(args)
    except (ValidationError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
