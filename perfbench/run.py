#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The driver and the library it measures
are compiled from the checkout's sources into .bench_build/perfbench
(CMake, RelWithDebInfo); the first run builds, later runs reuse the
build. The driver's report is printed unchanged; its last line is one
JSON object with the keys correct, attempted, failed and metrics. The
exit code is the driver's: 1 when a result disagrees with its oracle.

Each run is stamped with the checkout's commit (or a digest of src/ and
perfbench/ when the checkout is not a git repository). sim_ms_per_op is
deterministic for a seed; a run whose value differs from an earlier run
of the same sources (that digest), workload, seed and length is reported
on a `sim_drift` line.

--selftest runs the helper self-tests, then checks that a driver run with
a planted wrong oracle value fails and that the same run without it
passes.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_TIMEOUT_S = 170
# Compilers and the driver put temporary files under TMPDIR; keep them in
# the checkout's build directory.
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(target):
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        result = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, env=ENV)
        if result.returncode == 0:
            break
        if attempt == 0 and os.path.isdir(BUILD):
            # A cache made for another source tree: start over once.
            shutil.rmtree(BUILD)
            os.makedirs(ENV["TMPDIR"])
            continue
        return None
    result = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
        stdout=sys.stderr, stderr=sys.stderr, env=ENV)
    if result.returncode != 0:
        return None
    return os.path.join(BUILD, target)


def source_digest():
    """Digest of the library and benchmark sources, uncommitted edits included."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def commit_id(digest):
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "src-" + digest


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(driver, args, commit, extra=()):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit] + list(extra)
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, env=ENV)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, trace):
    """The parsed last line, or None when it breaks the output contract."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None
    if sorted(result["metrics"]) != sorted(expected_metrics(trace)):
        log("metric names differ from BENCHMARK.json")
        return None
    return result


def sim_drift(args, digest, result):
    """Compares sim_ms_per_op with earlier runs of the same sources and seed."""
    if args.trace:
        return None
    value = result["metrics"]["sim_ms_per_op"]["value"]
    # Beside the build directory, which build() may delete.
    ledger_path = os.path.join(os.path.dirname(BUILD), "perfbench_sim_ledger.json")
    ledger = {}
    if os.path.exists(ledger_path):
        with open(ledger_path) as f:
            ledger = json.load(f)
    key = "%s/%s/%d/%s" % (digest, args.workload, args.seed, args.seconds)
    earlier = ledger.setdefault(key, value)
    with open(ledger_path, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    if earlier != value:
        return "sim_drift workload=%s seed=%d sim_ms_per_op=%r earlier=%r" % (
            args.workload, args.seed, value, earlier)
    return None


def selftest():
    tests = build("perfbench_selftest")
    driver = build("perfbench_driver")
    if tests is None or driver is None:
        return 1
    ok = subprocess.run([tests], env=ENV).returncode == 0
    args = argparse.Namespace(workload="live_serve", seed=1, seconds=1, trace=0)
    commit = commit_id(source_digest())
    code, lines = run_driver(driver, args, commit, ["--plant-wrong-oracle"])
    planted = check_result(lines, False)
    planted_ok = code != 0 and planted is not None and not planted["correct"]
    print("%s planted wrong oracle value fails the run" % ("ok  " if planted_ok else "FAIL"))
    code, lines = run_driver(driver, args, commit)
    clean = check_result(lines, False)
    clean_ok = code == 0 and clean is not None and clean["correct"]
    print("%s the same run without it passes" % ("ok  " if clean_ok else "FAIL"))
    return 0 if ok and planted_ok and clean_ok else 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["bulk_build", "live_serve", "cold_join"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no library sources next to the benchmark")
        return 1
    driver = build("perfbench_driver")
    if driver is None:
        log("build failed")
        return 1
    digest = source_digest()
    code, lines = run_driver(driver, args, commit_id(digest))
    result = check_result(lines, args.trace)
    if result is None:
        log("driver printed no valid result (exit %d)" % code)
        for line in lines[-5:]:
            log(line)
        return code or 1
    drift = sim_drift(args, digest, result)
    for line in lines[:-1]:
        print(line)
    if drift:
        print(drift)
        log(drift)
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
