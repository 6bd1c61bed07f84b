#!/usr/bin/env python3
"""Builds and runs the whole-stack benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <paper_index|skewed_match|durable_churn>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The library under test and the benchmark binary are built from source into
.bench_build/perfbench (CMake, Release) before every run; an unchanged tree
rebuilds nothing. The binary's report (run stamp, every metric with unit and
sample count) goes to stderr; the last line of stdout is the result JSON.
A refused run (too short, unconverged, too few checkpoint cycles), a failed
build, or a result whose metrics differ from BENCHMARK.json exits non-zero
without a result line.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
WORKLOADS = ("paper_index", "skewed_match", "durable_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "4", "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds, so runs of different code are never
    compared silently."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    with open(os.path.join(ROOT, "CMakeLists.txt"), "rb") as f:
        h.update(f.read())
    return "src:" + h.hexdigest()[:16]


def check_against_contract(result, trace):
    """Metric names and units must be exactly BENCHMARK.json's."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return True
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s, "
            "unit mismatch %s" % (sorted(set(want) - set(got)),
                                  sorted(set(got) - set(want)),
                                  sorted(k for k in want if k in got and want[k] != got[k])))
        return False
    return True


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    cmd = [os.path.join(BUILD_DIR, "perfbench")] + args
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % timeout)
        return 124, ""
    return p.returncode, p.stdout


def self_test():
    """The benchmark's own tests: the oracle and gate unit tests, then one
    end-to-end run too short to back its tail percentile, which must be
    refused rather than reported."""
    if not build(["perfbench", "perfbench_test"]):
        return 1
    if subprocess.run([os.path.join(BUILD_DIR, "perfbench_test")],
                      cwd=BUILD_DIR).returncode:
        return 1
    out_dir = os.path.join(OUT_DIR, "self-test")
    os.makedirs(out_dir, exist_ok=True)
    code, out = run_binary(["--workload", "skewed_match", "--seed", "1",
                            "--seconds", "0.05", "--trace", "0",
                            "--out-dir", out_dir], RUN_TIMEOUT_S)
    if code != 3 or out.strip():
        log("a 0.05 s run was not refused (exit %d, stdout %r)" % (code, out))
        return 1
    log("self-test passed: a 0.05 s run was refused")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test()
    if a.workload is None:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src")):
        log("no src/ beside %s: nothing to build" % BENCH_DIR)
        return 1
    # Two runs in one checkout would share the build and the WAL directory
    # and measure each other; refuse the second one.
    os.makedirs(OUT_DIR, exist_ok=True)
    lock = open(os.path.join(OUT_DIR, "run.lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        log("another run is active in this checkout")
        return 1
    if not build(["perfbench"]):
        log("build failed")
        return 1
    out_dir = os.path.join(OUT_DIR, a.workload)
    os.makedirs(out_dir, exist_ok=True)
    code, out = run_binary(["--workload", a.workload, "--seed", str(a.seed),
                            "--seconds", repr(a.seconds), "--trace", str(a.trace),
                            "--out-dir", out_dir, "--commit", source_id()],
                           RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("benchmark exited %d without a result" % code)
        return code or 1
    result = json.loads(lines[-1])
    if not check_against_contract(result, a.trace == 1):
        return 4
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
