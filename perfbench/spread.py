#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each end-to-end
metric's median and quartile spread (IQR / median) against its bound.

    python3 perfbench/spread.py serve_cold 10        # seeds 1..10
    python3 perfbench/spread.py update_mix 5 --first-seed 100

Run from the repository root. Uses the command and run length in
BENCHMARK.json; exits 1 if a run fails or a spread (setup_s excepted)
is at or above a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("runs", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stdout, out.stderr, file=sys.stderr)
            sys.exit(1)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    steady = True
    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            steady, mark = False, "  <-- spread >= bound/3"
        print(f"{name:<34} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{mark}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
