#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

One run:
    python3 perfbench/run.py --workload mesh_query --seed 1 --seconds 10 --trace 0
prints the run's table and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.

Repeated runs (seeds seed, seed+1, ...), with each metric's median and
quartiles:
    python3 perfbench/run.py --workload catalog --repeat 5

Reference self-test of the benchmark's brute-force, recall and precision
routines:
    python3 perfbench/run.py --selftest

The benchmark compiles the library sources of the checkout it sits in
(../src) together with its own program, into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench at the checkout root).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mesh_query", "catalog", "ingest_durable")


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(target)


def build():
    """Configures and builds dess_perfbench; returns its path or exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources under %s/src; "
                         "run from a full checkout\n" % ROOT)
        sys.exit(2)
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "dess_perfbench"])
    for step in steps:
        # Build output goes to stderr: the last line of stdout is the result.
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            sys.exit(1)
    return os.path.join(build_dir, "dess_perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for an untraced or traced run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_once(binary, args, seed, echo):
    """Runs dess_perfbench once; returns its exit code and parsed result line.

    The output is passed through (to stdout when `echo`, else to stderr).
    A result whose metrics differ from BENCHMARK.json fails the run.
    """
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_root(), "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    (sys.stdout if echo else sys.stderr).write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    if list(result["metrics"]) != expected_metrics(args.trace):
        sys.stderr.write("perfbench: metrics differ from BENCHMARK.json\n")
        return 1, None
    return proc.returncode, result


def report_repeats(results):
    """Prints each metric's median, quartiles and quartile spread."""
    names = list(results[0]["metrics"].keys())
    print("%-36s %14s %14s %14s %8s %s" % ("metric", "median", "q1", "q3",
                                           "iqr/med", "unit"))
    for name in names:
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        print("%-36s %14.6g %14.6g %14.6g %8.4f %s" % (name, med, q1, q3,
                                                       spread, unit))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share of attempted per run: %s" % shares)
    print("correct in every run: %s" % all(r["correct"] for r in results))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on seeds seed..seed+N-1 and "
                             "summarize each metric")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.selftest:
        return subprocess.call([binary, "--selftest"])
    if args.repeat <= 0:
        return run_once(binary, args, args.seed, echo=True)[0]
    results = []
    for i in range(args.repeat):
        code, result = run_once(binary, args, args.seed + i, echo=False)
        if code != 0 or result is None:
            sys.stderr.write("perfbench: run with seed %d failed (exit %d)\n"
                             % (args.seed + i, code))
            return 1
        results.append(result)
    report_repeats(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
