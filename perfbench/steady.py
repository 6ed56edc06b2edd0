"""Steadiness check: repeat one workload with different seeds and print,
for every metric, the median, the quartiles, min/max and the spread
(inter-quartile distance as a share of the median) beside the bound in
``BENCHMARK.json``.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload serve --runs 10 --first-seed 1

Quartiles are ``statistics.quantiles(values, n=4)``. A spread above a
third of its bound is marked ``!``; the share of failed operations must
be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        runs.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted="
              f"{res['attempted']} failed={res['failed']}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {len(runs)} runs, all correct: "
          f"{all(r['correct'] for r in runs)}, failed shares: "
          f"{sorted(shares)}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'min':>12s} {'max':>12s} {'spread':>7s} {'bound':>6s}")
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "!" if bound and spread > bound / 3 else " "
        print(f"{name:34s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{min(vals):12.4f} {max(vals):12.4f} {spread:7.1%}"
              f"{flag}{'' if bound is None else f'{bound:6.2f}'}")
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "min": min(vals), "max": max(vals),
                         "spread": spread, "values": vals}
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench",
                        f"steady-{args.workload}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
