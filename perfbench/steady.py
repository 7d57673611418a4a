"""Steadiness of the benchmark: run it repeatedly and report the spread.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workload NAME ...] [--first-seed 1]

Each run uses its own seed (first-seed, first-seed + 1, ...; a later set goes
on from where the set before it ended), and the workloads take turns so that
a drift of the machine reaches all of them.  For every end-to-end metric of
every workload and every set it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile spread as a share
of the median, and the bound from BENCHMARK.json; and for every workload the
set of failed/attempted shares seen, which must hold one value.  With two or
more sets it then prints, for every metric, how much worse each later set's
median is than the first set's, as a share of the first.
Exits 1 if a run fails or is not correct, a spread exceeds its bound, a later
set's median is worse than the first's by more than the bound, or the
failed/attempted shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(bench, workloads, seeds, seconds):
    """Runs every workload once per seed; returns values, shares, walls, status."""
    values: dict = {w: {} for w in workloads}
    shares: dict = {w: set() for w in workloads}
    walls: dict = {w: [] for w in workloads}
    status = 0
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, *bench["command"][1:], "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls[w].append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: not correct\n{proc.stderr}", file=sys.stderr)
                status = 1
            shares[w].add(f"{result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + "  ".join(
                f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                + f"  ({walls[w][-1]:.1f} s)", flush=True)
    return values, shares, walls, status


def report(bounds, values, shares, walls):
    """Prints the spread table of one set; returns its medians and status."""
    medians: dict = {}
    status = 0
    print(f"\n{'workload':<24} {'metric':<30} {'n':>3} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for w in values:
        for name, vals in values[w].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[w, name] = med
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]["bound"]
            flag = "ok" if spread <= bound / 3 else "over bound/3"
            if spread > bound:
                flag, status = "OVER BOUND", 1
            print(f"{w:<24} {name:<30} {len(vals):>3} {med:>11.5g} {q1:>11.5g} "
                  f"{q3:>11.5g} {spread:>7.3f} {bound:>6} {flag}")
        print(f"{w:<24} {'failed/attempted':<30} {sorted(shares[w])}  "
              f"run wall median {statistics.median(walls[w]):.1f} s, "
              f"max {max(walls[w]):.1f} s")
        if len(shares[w]) != 1:
            status = 1
    return medians, status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in bench["end_to_end"]}
    status = 0
    sets = []
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        print(f"set {k + 1}: seeds {first}..{first + args.runs - 1}", flush=True)
        values, shares, walls, run_status = run_set(
            bench, args.workload, range(first, first + args.runs), args.seconds)
        medians, set_status = report(bounds, values, shares, walls)
        sets.append((medians, shares))
        status |= run_status | set_status

    if len(sets) > 1:
        (first_medians, first_shares), later = sets[0], sets[1:]
        print(f"\n{'workload':<24} {'metric':<30} {'set 1':>11} "
              + " ".join(f"{'set ' + str(k + 2):>11} {'worse':>7}"
                         for k in range(len(later))) + f" {'bound':>6}")
        for (w, name), m1 in first_medians.items():
            m = bounds[name]
            cells, flag = [], "ok"
            for medians, _ in later:
                m2 = medians.get((w, name), float("nan"))
                worse = (m2 - m1) / abs(m1) if m["better"] == "lower" else (m1 - m2) / abs(m1)
                cells.append(f"{m2:>11.5g} {worse:>7.3f}")
                if not worse <= m["bound"]:
                    flag, status = "WORSE THAN BOUND", 1
            print(f"{w:<24} {name:<30} {m1:>11.5g} " + " ".join(cells)
                  + f" {m['bound']:>6} {flag}")
        for w in args.workload:
            if any(shares[w] != first_shares[w] for _, shares in later):
                print(f"{w}: failed/attempted differs between sets", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
