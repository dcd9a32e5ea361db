"""Repeat a workload's untraced run and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload stream --runs 5
    python3 perfbench/spread.py --workload all --runs 10            # seeds 1..10
    python3 perfbench/spread.py --workload all --runs 10 --seed 0   # seed 0, ten times

Each run is the benchmark command as BENCHMARK.json gives it, with
--seconds run_seconds and --trace 0, in its own process, one after another.
By default run i gets seed i, so the spread holds the change of inputs from
seed to seed as well as the noise between runs; with --seed every run gets
that one seed, so the spread is the noise between runs alone.

The spread is the distance between the first and third quartile of the
runs' values (statistics.quantiles(values, n=4)) as a share of their median,
printed next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess

ROOT = Path(__file__).resolve().parent.parent
NAMES = ("pipeline", "search", "stream", "compress")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None, help="give every run this seed")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [args.seed] * args.runs if args.seed is not None else list(range(1, args.runs + 1))
    worst = 0.0
    for name in NAMES if args.workload == "all" else (args.workload,):
        runs = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, end="")
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(json.dumps({"workload": name, "seed": seed, **res}), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: {len(runs)} runs, failed share {sorted(shares)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            s, median = spread(values)
            ratio = s / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, ratio)
            print(f"  {metric:<22} median {median:<12.6g} spread {s:7.4f}  bound {bounds[metric]:.2f}"
                  f"  spread/bound {ratio:5.2f}", flush=True)
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")


if __name__ == "__main__":
    main()
