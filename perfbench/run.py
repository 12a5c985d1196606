#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 25 --trace 0

builds the benchmark (dune, release profile, into .bench_build/) and runs
one workload; the last line of standard output is the JSON result.

Repeat mode runs each workload in a process of its own several times, run
i with seed --seed + i, and prints, per metric, the median, the quartiles
and their spread:

    python3 perfbench/run.py --repeat 10 --seed 1 --seconds 25

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

WORKLOADS = ["fresh", "persistent", "serve", "race"]
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for f in ("dune-project", os.path.join("perfbench", "dune"), "lib"):
        if not os.path.exists(f):
            fail("run from the root of a checkout of the repository (%s is missing)" % f)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
           "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (exit %d)" % r.returncode)


def run_once(workload, seed, seconds, trace, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                           text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT))
    return r


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def repeat(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    seeds = [args.seed + i for i in range(args.repeat)]
    summary = {"nproc": os.cpu_count(), "ocaml": ocaml_version(), "machine": platform.machine(),
               "seconds": args.seconds, "trace": args.trace, "seeds": seeds, "workloads": {}}
    print("nproc %s, OCaml %s, seeds %s" % (summary["nproc"], summary["ocaml"], seeds))
    for w in workloads:
        samples, units, correct = {}, {}, True
        for s in seeds:
            r = run_once(w, s, args.seconds, args.trace, capture=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                fail("%s --seed %d exited %d" % (w, s, r.returncode))
            res = json.loads(lines[-1])
            correct = correct and res["correct"]
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print("\n== %s (%d runs, all correct: %s)" % (w, len(seeds), correct))
        print("%-30s %-6s %14s %14s %14s %8s" % ("metric", "unit", "q1", "median", "q3", "spread"))
        for name, xs in samples.items():
            q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"unit": units[name], "q1": q1, "median": med, "q3": q3,
                          "spread": spread, "values": xs}
            print("%-30s %-6s %14.6g %14.6g %14.6g %8.3f" % (name, units[name], q1, med, q3, spread))
        summary["workloads"][w] = {"correct": correct, "metrics": rows}
    print(json.dumps(summary))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="repeat mode: this many runs of each workload (or of --workload), "
                        "with seeds --seed, --seed + 1, ...")
    args = p.parse_args()
    if args.repeat == 0 and args.workload is None:
        fail("--workload is required (or use --repeat)")
    build()
    if args.repeat > 0:
        repeat(args)
        return
    r = run_once(args.workload, args.seed, args.seconds, args.trace, capture=False)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
