#!/usr/bin/env python3
"""Benchmark entry point: builds the engine and the benchmark binary from
source, pins the environment, runs one workload and prints its result.

Run from the repository root:

  python3 perfbench/run.py --workload tpch-warm --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --steady 10 --workload refresh-mixed --seconds 10
  python3 perfbench/run.py --steady 10 --sets 2 --workload tpch-warm --seconds 15
  python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything is built and
written under .bench_build/ in the current directory.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
# Engine knobs read from the environment. The benchmark sets each of them
# through EngineOptions, so they are removed from the child's environment;
# the benchmark binary refuses to run if one is still set.
ENGINE_ENV_KNOBS = ("HQ_THREADS", "HQ_SIMD", "HQ_COMPRESS", "HQ_TRACE_SPANS",
                    "HQ_SLOW_QUERY_MS", "HQ_BUFFER_PAGES", "HQ_GEN_CXXFLAGS",
                    "HIQUE_CXX")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures (once) and builds `target`; False when the sources are
    missing or do not compile."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        log("run.py: no engine sources next to perfbench/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def child_env():
    env = dict(os.environ)
    for knob in ENGINE_ENV_KNOBS:
        env.pop(knob, None)
    tmp = os.path.abspath(os.path.join(BUILD_ROOT, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # g++ temporaries stay inside the checkout
    return env


def run_once(workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary once; returns the parsed result or None."""
    work = os.path.join(BUILD_ROOT, "work", "%s-%d-%d" % (workload, seed,
                                                          os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD_DIR, "hqbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: run timed out")
        return None
    finally:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        if os.path.isdir(work):
            for name in os.listdir(work):
                if name.startswith("spans-"):
                    shutil.move(os.path.join(work, name),
                                os.path.join(traces, name))
                    if echo:
                        print("# span file: " + os.path.join(traces, name))
        shutil.rmtree(work, ignore_errors=True)
    lines = r.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if r.returncode != 0 or not lines:
        log("run.py: hqbench exited with code %d" % r.returncode)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("run.py: no result line")
        return None
    return result, lines[-1], lines[:-1]


def spread_table(values):
    """Prints each metric's median, quartiles (statistics.quantiles, n=4),
    min, max and IQR/median; returns the medians."""
    print("%-34s %12s %12s %12s %12s %12s %9s" % (
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"))
    medians = {}
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print("%-34s %12.6g %12.6g %12.6g %12.6g %12.6g %8.2f%%" % (
            name, med, q1, q3, min(v), max(v), 100 * spread))
        medians[name] = med
    return medians


def steady(args):
    """Runs one workload with seeds 1..N, once per set; the sets take turns
    run by run. Prints each set's spread table and, for two sets, how much
    worse the second set's median of each end-to-end metric is than the
    first's, against the metric's bound in BENCHMARK.json."""
    sets = [{} for _ in range(args.sets)]
    shares = set()
    for seed in range(1, args.steady + 1):
        for k, values in enumerate(sets):
            out = run_once(args.workload, seed, args.seconds, args.trace,
                           echo=False)
            if out is None:
                log("run.py: run with seed %d failed" % seed)
                return 1
            result = out[0]
            for line in out[2]:
                if " n=" in line:  # per-kind sample counts, medians and tails
                    log("set %d seed %d %s" % (k + 1, seed, line))
            if not result["correct"]:
                log("run.py: run with seed %d gave wrong results" % seed)
                return 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            log("set %d seed %d: %s" % (k + 1, seed, " ".join(
                "%s=%.6g" % (n, v["value"])
                for n, v in result["metrics"].items())))
    medians = []
    for k, values in enumerate(sets):
        if args.sets > 1:
            print("set %d" % (k + 1))
        medians.append(spread_table(values))
    print("failed share per run: %s" % sorted(shares))
    if args.sets == 2 and os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
        print("%-34s %12s %12s %9s %7s" % ("metric", "set 1", "set 2",
                                           "worse", "bound"))
        for name, first in medians[0].items():
            if name not in bounds or not first:
                continue
            change = medians[1][name] / first - 1
            worse = change if bounds[name]["better"] == "lower" else -change
            print("%-34s %12.6g %12.6g %8.2f%% %6.0f%%" % (
                name, first, medians[1][name], 100 * worse,
                100 * bounds[name]["bound"]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="tpch-warm")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="steadiness mode: run the workload N times")
    p.add_argument("--sets", type=int, default=1,
                   help="steadiness mode: repeat the seeds in this many "
                        "sets, taking turns")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 1
        return subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                              env=child_env()).returncode
    if not build("hqbench"):
        return 1
    if args.steady > 0:
        return steady(args)
    out = run_once(args.workload, args.seed, args.seconds, args.trace == 1)
    if out is None:
        return 1
    print(out[1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
