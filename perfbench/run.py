"""Benchmark of mdmest: identify latency and Monte-Carlo throughput.

One workload, in this process, ending with a one-line JSON result:

    python3 perfbench/run.py --workload obs-ltv-weighted --seed 1 --seconds 40 --trace 0

Every workload, each in its own process:

    python3 perfbench/run.py --seed 1

A seconds-long pass over every workload's code path and checks, at tiny tau,
untraced and traced (or only the mode ``--trace`` names):

    python3 perfbench/run.py --smoke [--workload NAME] [--trace 0|1]

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).  The program is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: steadier on a shared machine
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def blas_threads() -> str:
    """Thread count of each loaded OpenBLAS, asked through its own API."""
    counts = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                counts.append(str(getattr(lib, name)()))
                break
    return ",".join(counts) or "unknown"


def env_stamp() -> str:
    import numpy
    import scipy

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b['name']}-{b['version']}"

    return (f"env: nproc={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} "
            f"numpy={numpy.__version__} ({blas(numpy)}) "
            f"scipy={scipy.__version__} ({blas(scipy)}) "
            f"blas_threads={blas_threads()}")


def run_one(args, workloads) -> int:
    w = workloads.WORKLOADS[args.workload]
    work = OUT / f"work-{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(w, args.seed, args.seconds, args.trace == 1,
                               args.smoke, SRC, work, log=print)
    except workloads.BenchError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(env_stamp())
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in its own process; with --smoke, untraced and traced."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.trace is not None:
        traces = (args.trace,)
    else:
        traces = (0, 1) if args.smoke else (0,)
    status = 0
    for name in names:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            print(proc.stdout, end="", flush=True)
            lines = proc.stdout.strip().splitlines()
            ok = proc.returncode == 0 and lines and json.loads(lines[-1])["correct"]
            if not ok:
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})",
                      file=sys.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tau and few ops; both trace modes unless --trace")
    args = parser.parse_args(argv)
    if not (SRC / "mdmest" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.workload and (args.trace is not None or not args.smoke):
        return run_one(args, workloads)
    return run_all(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
