#!/usr/bin/env python3
"""The gcsafe benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds gcsafe-serve and the benchmark's
own tool into .bench_build/ on first use, then:

  --trace 0  drives a gcsafe-serve daemon over its unix socket and reports
             the end-to-end metrics of BENCHMARK.json;
  --trace 1  reports its per-layer metrics instead: a short untraced
             daemon run (the latency that trace.coverage_ratio divides by)
             and an in-process traced run over the same generated inputs.

A readable table goes to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}. `--record` rewrites
perfbench/expected.json from the current build instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
TOOL = os.path.join(CMAKE_DIR, "perfbench-tool")
DAEMON = os.path.join(CMAKE_DIR, "tools", "gcsafe-serve")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["cold_mix", "warm_hits", "gc_checked", "lint_each_pass"]


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures the repository with the benchmark attached and builds the
    two binaries it needs. Incremental after the first run."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("run from the root of a gcsafe checkout (no CMakeLists.txt "
             "and src/ here)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", ROOT, "-B", CMAKE_DIR] + generator +
                         ["-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          "-DCMAKE_PROJECT_INCLUDE=" +
                          os.path.join(HERE, "attach.cmake")])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j4", "--target",
                      "gcsafe-serve", "perfbench-tool"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               timeout=880) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)


def tool(*args, timeout):
    """Runs perfbench-tool and returns its JSON summary."""
    proc = subprocess.run([TOOL] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("perfbench-tool %s exited %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def serve_run(args, seconds, setups, workdir):
    return tool("serve", "--workload=" + args.workload,
                "--seed=%d" % args.seed, "--seconds=%g" % seconds,
                "--daemon=" + DAEMON, "--expected=" + EXPECTED,
                "--workdir=" + workdir, "--setups=%d" % setups,
                timeout=seconds + 120)


def metric_specs(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[kind]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite perfbench/expected.json and exit")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    build()
    if args.record:
        sys.exit(subprocess.call([TOOL, "record", "--out=" + EXPECTED]))

    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    problems = []
    try:
        if args.trace == 0:
            s = serve_run(args, args.seconds, 7, workdir)
            specs = metric_specs("end_to_end")
            attempted, failed = s["attempted"], s["failed"]
            values = dict(s)
            values["success_ratio"] = (attempted - failed) / max(attempted, 1)
            correct = s["correct"]
            problems += s["problems"]
            extra = [("latency samples", s["latency_samples"], "count"),
                     ("failed_ratio", failed / max(attempted, 1), "ratio"),
                     ("cache hits (daemon)", s["cache_hits"], "count")]
        else:
            # Half the time on the untraced daemon (for coverage), half on
            # the traced in-process run; the former feeds no metric here
            # but the coverage denominator and the queue-wait p50.
            s = serve_run(args, args.seconds / 2, 1, workdir)
            t = tool("trace", "--workload=" + args.workload,
                     "--seed=%d" % args.seed,
                     "--seconds=%g" % (args.seconds / 2),
                     "--expected=" + EXPECTED,
                     "--spans=" + os.path.join(
                         BUILD, "spans-%s-%d.json" % (args.workload,
                                                      args.seed)),
                     "--untraced-latency-ms=%r" % s["latency_p50_ms"],
                     "--queue-wait-p50-us=%r" % s["queue_wait_p50_us"],
                     timeout=args.seconds + 120)
            specs = metric_specs("per_layer")
            values = t["metrics"]
            attempted, failed = t["attempted"], t["failed"]
            correct = s["correct"] and t["correct"]
            problems += s["problems"] + t["problems"]
            extra = [("untraced latency_p50_ms", s["latency_p50_ms"], "ms")]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if attempted == 0:  # the daemon never took a request: one failed try
        attempted = failed = 1
        correct = False
    metrics = {}
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for spec in specs:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print("  %-28s %14.6g %s" % (spec["name"], value, spec["unit"]))
    for name, value, unit in extra:
        print("  %-28s %14.6g %s" % (name, value, unit))
    for p in problems:
        print("  problem: " + p)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
