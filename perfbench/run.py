"""Benchmark for jamcodec: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                      # every workload, untraced and traced

One workload runs in one process. The last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are every end-to-end metric of BENCHMARK.json; with --trace 1 they
are every per-layer metric, taken from spans recorded around the program's
public functions, and the spans are written under .perfbench-work/trace/.
Every workload reports every name; a layer a workload never calls reads 0. A failed
correctness check prints correct=false and exits with code 1. --seconds
defaults to run_seconds in BENCHMARK.json.

Set-up time runs from the first line of this file to the first timed
operation, measured once per process. An untraced run also starts
SETUP_PROBES processes one after another, after its timed part, that set up
the same workload and stop there; setup_s is the median of the three times.

The program is imported from src/ next to this directory and nowhere else:
without it the benchmark exits with code 1 and prints no result.
"""

import os
import sys
import time

T0 = time.perf_counter()
# One BLAS thread: on two cores the default pool makes the small-matrix
# training both slower and less steady (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("JAMCODEC_OUTPUT_DIR", None)  # the benchmark chooses its own output dirs

import argparse
import json
from pathlib import Path
import resource
import shutil
import statistics
import subprocess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 2  # set-up-only processes per untraced run
NAMES = ("pipeline", "search", "stream", "compress")


def load_units():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def declared(spec, kind):
    """The metric names of ``kind`` ("end_to_end" or "per_layer"), in BENCHMARK.json's order."""
    return tuple(m["name"] for m in spec[kind])


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import jamcodec
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import jamcodec from {src}: {exc}")
    if Path(jamcodec.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: jamcodec was imported from {jamcodec.__file__}, not {src}")


def result(correct, attempted, failed, values, units):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def emit(name, values, expected, units, attempted, failed):
    """Print each metric with its unit, then the result line; values must match ``expected``."""
    if set(values) != set(expected):
        raise RuntimeError(f"{name} produced {sorted(values)}, declared {sorted(expected)}")
    for k in expected:
        print(f"{name:<9} {k:<28} {values[k]!r} {units[k]}")
    print(f"{name:<9} attempted {attempted}, failed {failed}")
    print(json.dumps(result(True, attempted, failed, {k: values[k] for k in expected}, units)))


def run_one(name, seed, seconds, trace, setup_only=False):
    spec, units = load_units()
    import_program()
    import checks
    from tracing import Tracer
    import workloads

    wl = workloads.WORKLOADS[name]()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    try:
        wl.prepare(seed, work)
        wl.warm()
        setup_s = time.perf_counter() - T0
        if setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if trace:
            tracer = Tracer()
            workloads.instrument(tracer)
            for missing in tracer.missing:
                print(f"perfbench: {missing} no longer exists; its layer is not traced", file=sys.stderr)
            tracer.enable()
        try:
            e2e, attempted, failed = wl.run(seconds, tracer)
        except checks.CheckFailed as exc:
            print(f"perfbench: {name}: check failed: {exc}", file=sys.stderr)
            print(json.dumps(result(False, 1, 0, {}, units)))
            return 1
        finally:
            if tracer is not None:
                tracer.disable()
        if trace:
            values = workloads.layer_metrics(tracer, wl.overhead)
            expected = declared(spec, "per_layer")
            (WORK / "trace").mkdir(parents=True, exist_ok=True)
            tracer.dump(WORK / "trace" / f"{name}-seed{seed}.jsonl")
        else:
            values = {
                "setup_s": statistics.median([setup_s] + probe_setups(name, seed)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                **e2e,
            }
            expected = declared(spec, "end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(name, values, expected, units, attempted, failed)
    return 0


def probe_setups(name, seed):
    """Set-up times of SETUP_PROBES fresh processes that stop before the timed part."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: {name}: set-up probe exited with code {proc.returncode}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_all(seed, seconds, traces):
    """Every workload in its own process; prints each metric and the ops per workload."""
    ok, attempted, failed, merged = True, 0, 0, {}
    for name in NAMES:
        for trace in traces:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit code {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and res["correct"]
            if trace == traces[0]:
                attempted += res["attempted"]
                failed += res["failed"]
            merged.update({f"{name}:{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else load_units()[0]["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, (0, 1) if args.trace is None else (args.trace,))
    return run_one(args.workload, args.seed, seconds, bool(args.trace), args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
