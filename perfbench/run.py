#!/usr/bin/env python3
"""Builds and runs the featsep end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <spill|fit> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark (Release)
under .bench_build/ (or $CARGO_TARGET_DIR); later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the library
sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(command):
    """Runs a build step with its output on stderr; returns its exit code."""
    return subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no featsep sources (src/CMakeLists.txt) next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    if run_quiet(["cmake", "--build", out, "--target", target, "-j",
                  jobs]) != 0:
        return None
    return os.path.join(out, target)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    commit = result.stdout.strip()
    return commit if result.returncode == 0 and commit else "unavailable"


def run_child(command):
    """Runs the benchmark binary, forwarding its output; always reaps it,
    also when this script is interrupted or terminated."""
    def terminate(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, terminate)
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def selftest():
    binary = build("perfbench_selftest")
    if binary is None:
        return 1
    result = subprocess.run([binary], cwd=ROOT, capture_output=True,
                            text=True)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        return result.returncode
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]},
              1: {m["name"] for m in spec["per_layer"]}}
    status = 0
    for line in result.stdout.splitlines():
        if not line.startswith("RESULT "):
            print(line)
            continue
        _, workload, trace, payload = line.split(" ", 3)
        got = set(json.loads(payload)["metrics"])
        missing = wanted[int(trace)] - got
        extra = got - wanted[int(trace)]
        if missing or extra:
            print(f"tiny {workload} trace={trace}: missing {sorted(missing)} "
                  f"extra {sorted(extra)}", file=sys.stderr)
            status = 1
        else:
            print(f"tiny {workload} trace={trace}: metric names match "
                  "BENCHMARK.json")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    binary = build("featsep_perfbench")
    if binary is None:
        return 1
    base = os.path.dirname(build_dir())
    work_dir = os.path.join(base, f"perfbench-work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", git_commit(), "--work-dir", work_dir]
    if args.trace:
        command += ["--trace-out", os.path.join(
            base, f"perfbench-trace-{args.workload}-{args.seed}.jsonl")]
    try:
        return run_child(command)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
