#!/usr/bin/env python3
"""Paired benchmark runs of a parent checkout and a change checkout.

Run from the repository root, with a checkout (git clone or git
archive) of each commit to compare:

    python3 tools/pairs.py --parent ../parent --change ../change \\
        --workload toy-forgery-game --pairs 10

Pair k runs the benchmark command of BENCHMARK.json in both checkouts,
once each, with --seed SEED+k and the same --seconds; the parent runs
first in even pairs and the change in odd ones, so that both sides run
first equally often. Each run's last line of standard output is its JSON
record; a run that exits non-zero or reports incorrect outputs stops the
tool. Every run's metrics are printed as it ends. Then, per workload
and end-to-end metric, the summary gives both medians, the parent's
quartile spread (upper minus lower quartile of its runs), the pairs the
change won (ties count for neither side) and whether the change's
median stays within the metric's bound in BENCHMARK.json. The tool only
runs the benchmark; it edits no file of either checkout. Stdlib only.

Place both checkouts at absolute paths of equal length: two copies of
one commit at paths of different length read op_p50_us up to 1.5% apart
on production-reject-mix, every pair in one direction, and none apart at
equal length. The tool warns when the lengths differ.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent


def summarize(parent: list, change: list, metrics: list) -> list:
    """One row per metric of BENCHMARK.json's end_to_end list, from the
    paired runs parent[k] and change[k], each a {metric: value} dict:
    (name, unit, parent median, change median, parent quartile spread,
    change wins, pairs, within bound)."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more complete pairs")
    rows = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4)
        wins = sum(cv < pv if lower else cv > pv for pv, cv in zip(p, c))
        within = (c_med <= p_med * (1 + m["bound"]) if lower
                  else c_med >= p_med * (1 - m["bound"]))
        rows.append((name, m["unit"], p_med, c_med, q3 - q1, wins, len(p),
                     within))
    return rows


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> dict:
    """{metric: value} from one benchmark run in checkout."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", f"{seconds:g}"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines() or [""]
    try:
        record = json.loads(lines[-1])
    except ValueError:  # the run stopped before its JSON line
        record = {}
    if done.returncode != 0 or not record.get("correct"):
        sys.exit(f"pairs: {workload} seed {seed} in {checkout} failed "
                 f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    return {name: m["value"] for name, m in record["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeat for several (default: every workload)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7700,
                    help="pair k runs seed SEED+k on both sides")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if args.pairs < 2:  # summarize needs two pairs; refuse before any run
        ap.error(f"--pairs must be 2 or more, not {args.pairs}")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            ap.error(f"{checkout} holds no perfbench/run.py")
    lengths = [len(str(path.resolve())) for path in (args.parent, args.change)]
    if lengths[0] != lengths[1]:
        print(f"pairs: warning: the --parent and --change paths are "
              f"{lengths[0]} and {lengths[1]} characters long; a path "
              f"length difference biased op_p50_us by up to 1.5% between "
              f"two copies of one commit, so compare checkouts at paths of "
              f"equal length", file=sys.stderr, flush=True)
    metrics = bench["end_to_end"]
    for workload in args.workload or names:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change")
            for side in order if k % 2 == 0 else order[::-1]:
                got = run_once(getattr(args, side).resolve(),
                               bench["command"], workload, args.seed + k,
                               args.seconds)
                runs[side].append(got)
                print(f"{workload} pair {k} {side}: " + " ".join(
                    f"{m['name']}={got[m['name']]:.6g}" for m in metrics),
                    flush=True)
        print(f"\n{workload}: {args.pairs} pairs, {args.seconds:g} s runs, "
              f"seeds {args.seed}-{args.seed + args.pairs - 1}")
        print(f"{'metric':12} {'unit':4} {'parent':>11} {'change':>11} "
              f"{'delta':>7} {'parent IQR':>11} {'wins':>6}  within bound")
        for name, unit, p_med, c_med, iqr, wins, n, within in summarize(
                runs["parent"], runs["change"], metrics):
            print(f"{name:12} {unit:4} {p_med:11.5g} {c_med:11.5g} "
                  f"{(c_med - p_med) / p_med:+7.1%} {iqr:11.3g} "
                  f"{wins:>3}/{n:<2}  {'yes' if within else 'NO'}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
