#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload scan|interactive|serve_mixed \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
package in perfbench/ (which compiles the DUEL libraries from src/) into
.bench_build/perfbench with CMake; later calls reuse the build. Then it runs
the workload runner (duelbench), which prints one line per metric and, as
the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the spans of the traced phase
are written to
.bench_build/traces/. Exits non-zero, without a result line, when the build
or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["duelbench", "perfbench_selftest"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step, showing its output only when it fails."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace")[-8000:])
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", SRC, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] + TARGETS,
              840)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["scan", "interactive", "serve_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.selftest:
        p = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
        sys.exit(p.returncode)

    cmd = [os.path.join(BUILD, "duelbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.jsonl" % (args.workload, args.seed))]
    # Workloads run with DUEL's default options: no DUEL_* overrides.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DUEL_")}
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload run timed out")
    out = p.stdout.decode(errors="replace")
    lines = out.rstrip("\n").split("\n")
    if p.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("duelbench exited with %d" % p.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("the last output line is not a JSON result")
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            fail("result lacks key " + key)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
