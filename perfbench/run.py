#!/usr/bin/env python3
"""Build the benchmark runner from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 0

The runner is configured and built with CMake under the build directory
(`$CARGO_TARGET_DIR/perfbench` when that variable is set, else
`.bench_build/perfbench`), then run. The last line of standard output is the
result: one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(and writes the recorded spans next to the build as
`trace_<workload>.json`). `--workload all` runs every workload in turn and
ends with one object keyed by workload name. The exit code is non-zero when
the build fails, an output check fails or the runner errors.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc_hot", "svc_cold", "stream_mixed")
RUNNER_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the runner; returns its path or None."""
    out = build_dir()
    # Configuring every time is cheap once cached, and picks up a changed
    # build file before the build step looks for its target.
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench_runner",
              "-j", "4"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench_runner")


def run_workload(runner, workload, args):
    cmd = [runner, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace_%s.json" % workload)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None, None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or "metrics" not in result:
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return proc.returncode or 1, None, None
    return proc.returncode, result, lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    runner = build()
    if runner is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for workload in workloads:
        code, result, line = run_workload(runner, workload, args)
        if result is None:
            return code or 1
        status = status or code
        results[workload] = result
        if args.workload != "all":
            print(line)
    if args.workload == "all":
        print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
