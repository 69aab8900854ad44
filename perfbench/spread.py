#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median and the distance between the first and third quartile
as a share of the median -- the figure a metric's bound in BENCHMARK.json
is compared against. Run it from the repository root:

    python3 perfbench/spread.py --workloads replay,exec,serve --seeds 1-10 --seconds 30
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="replay,exec,serve")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", args.seconds, "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed",
                      file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}:")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med
            bound = bounds[name]
            worst = max(worst, spread / bound)
            flag = "  OVER a third of the bound" if spread > bound / 3 else ""
            print(f"  {name:<40} median {med:<14.6g} spread {spread:7.2%}"
                  f"  bound {bound}{flag}")
            print("    " + " ".join(f"{v:.6g}" for v in vs))
    print(f"worst spread / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
