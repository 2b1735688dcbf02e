#!/usr/bin/env python3
"""A/B comparison of the repository benchmark: a reference commit against
the working tree.

    python3 scripts/ab.py --ref <commit> --workload <name> [--workload ...]
                          --seed <n> [--seed ...] [--pairs 10]
                          [--seconds 20] [--trace] [--scratch DIR]
                          [--out FILE]

Run from anywhere inside the checkout. The reference (`git archive`) and
the working tree (tracked and untracked files that git does not ignore)
are exported into <scratch>/ref and <scratch>/change; each side's
perfbench/run.py builds its own driver there. Exports only rewrite files
whose bytes changed, so a later run with the same --scratch reuses both
builds.

For each workload and seed the script runs --pairs alternating pairs,
swapping which side goes first in each pair. For every end-to-end metric
of BENCHMARK.json (name, direction and bound are read from it) it prints
both sides' medians and quartiles, the reference's IQR, the change's
wins, and a verdict:

    better      the change wins at least 90% of the pairs (9 of 10),
                ties counting for neither, and its median is better than
                the reference's by more than the reference's IQR;
    WORSE       the change's median is worse than the reference's by
                more than the metric's bound, relative to the reference;
    unresolved  the reference's IQR is wider than the bound, relative to
                its median, and not every change run beats every
                reference run, so the pairs cannot rule out a regression;
    -           none of these.

--trace adds one traced run per side, workload and seed after the pairs,
and prints the per-layer metrics side by side.

The exit code is 1 when a run broke its oracle or its output contract,
an op failed, or sim_ms_per_op differs between runs of one seed; it is 0
otherwise, WORSE verdicts included. The JSON record (--out, default
<scratch>/ab.json) holds every run's metrics and every verdict.
"""

import argparse
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

WIN_SHARE = 0.9


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(root, *args, binary=False):
    out = subprocess.run(["git", "-C", root] + list(args), capture_output=True,
                         check=True)
    return out.stdout if binary else out.stdout.decode().strip()


def write_if_changed(path, data, keep):
    keep.add(os.path.normpath(path))
    if os.path.exists(path):
        with open(path, "rb") as f:
            if f.read() == data:
                return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)


def drop_stale(dest, keep):
    """Removes exported files that the source no longer has (builds stay)."""
    for dirpath, dirnames, filenames in os.walk(dest):
        dirnames[:] = [d for d in dirnames if d != ".bench_build"]
        for name in filenames:
            path = os.path.normpath(os.path.join(dirpath, name))
            if path not in keep:
                os.remove(path)


def export_ref(root, ref, dest):
    keep = set()
    archive = tarfile.open(fileobj=io.BytesIO(git(root, "archive", ref, binary=True)))
    for member in archive.getmembers():
        if member.isfile():
            write_if_changed(os.path.join(dest, member.name),
                             archive.extractfile(member).read(), keep)
    drop_stale(dest, keep)


def export_worktree(root, dest):
    keep = set()
    names = git(root, "ls-files", "-z", "--cached", "--others",
                "--exclude-standard", binary=True).decode().split("\0")
    for name in names:
        path = os.path.join(root, name)
        if name and os.path.isfile(path):
            with open(path, "rb") as f:
                write_if_changed(os.path.join(dest, name), f.read(), keep)
    drop_stale(dest, keep)


def build_driver(side_dir):
    """Builds the side's driver through its own perfbench/run.py."""
    path = os.path.join(side_dir, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build("perfbench_driver") is not None


def run_once(side_dir, workload, seed, seconds, trace):
    """One run.py invocation: (ok, result dict or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=side_dir, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        log("%s: no result (exit %d)\n%s" % (side_dir, proc.returncode,
                                             proc.stderr[-2000:]))
        return False, None
    ok = proc.returncode == 0 and result.get("correct", False)
    return ok, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(spec, ref, change):
    """Statistics and verdict of one end-to-end metric over paired runs."""
    lower = spec["better"] == "lower"
    r1, rm, r3 = quartiles(ref)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for r, c in zip(ref, change) if (c < r if lower else c > r))
    gain = (rm - cm) if lower else (cm - rm)
    iqr = r3 - r1
    pairs = len(ref)
    every_run_better = all((c < r if lower else c > r)
                           for c in change for r in ref)
    verdict = "-"
    if rm != 0 and iqr / abs(rm) > spec["bound"] and not every_run_better:
        verdict = "unresolved"
    if wins >= math.ceil(WIN_SHARE * pairs) and gain > iqr:
        verdict = "better"
    if rm != 0 and -gain / abs(rm) > spec["bound"]:
        verdict = "WORSE"
    return {
        "ref": ref, "change": change,
        "median_ref": rm, "q1_ref": r1, "q3_ref": r3, "iqr_ref": iqr,
        "median_change": cm, "q1_change": c1, "q3_change": c3,
        "delta_pct": 100.0 * (cm - rm) / rm if rm else None,
        "wins": wins, "pairs": pairs, "bound": spec["bound"],
        "better": spec["better"], "verdict": verdict,
    }


def fmt(value):
    return "%.4g" % value


def print_table(workload, seed, table):
    print("\n%s seed %d, %d pairs" % (workload, seed,
                                      next(iter(table.values()))["pairs"]))
    print("%-16s %-26s %-26s %8s %9s %6s  %s" % (
        "metric", "ref median [q1, q3]", "change median [q1, q3]", "delta",
        "ref IQR", "wins", "verdict"))
    for name, s in table.items():
        delta = "n/a" if s["delta_pct"] is None else "%+.1f%%" % s["delta_pct"]
        print("%-16s %-26s %-26s %8s %9s %6s  %s" % (
            name,
            "%s [%s, %s]" % (fmt(s["median_ref"]), fmt(s["q1_ref"]), fmt(s["q3_ref"])),
            "%s [%s, %s]" % (fmt(s["median_change"]), fmt(s["q1_change"]),
                             fmt(s["q3_change"])),
            delta, fmt(s["iqr_ref"]), "%d/%d" % (s["wins"], s["pairs"]),
            s["verdict"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--scratch",
                        default=os.path.join(tempfile.gettempdir(), "shadoop-ab"))
    parser.add_argument("--out")
    args = parser.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"ref": os.path.join(args.scratch, "ref"),
             "change": os.path.join(args.scratch, "change")}
    ref_commit = git(root, "rev-parse", args.ref)
    log("exporting %s (%s) and the working tree into %s" %
        (args.ref, ref_commit[:12], args.scratch))
    export_ref(root, ref_commit, sides["ref"])
    export_worktree(root, sides["change"])
    for side, path in sides.items():
        log("building the %s driver" % side)
        if not build_driver(path):
            log("build failed: %s" % path)
            return 1

    record = {"ref": args.ref, "ref_commit": ref_commit,
              "change": "working tree of " + git(root, "rev-parse", "HEAD"),
              "pairs": args.pairs, "seconds": args.seconds,
              "win_share": WIN_SHARE, "runs": {}, "ok": True}
    problems = []
    for workload in args.workload:
        for seed in args.seed:
            runs = {"ref": [], "change": []}
            for pair in range(args.pairs):
                order = ("ref", "change") if pair % 2 == 0 else ("change", "ref")
                for side in order:
                    log("%s seed %d pair %d/%d: %s" % (workload, seed, pair + 1,
                                                       args.pairs, side))
                    ok, result = run_once(sides[side], workload, seed,
                                          args.seconds, False)
                    if not ok:
                        problems.append("%s seed %d: a %s run broke its oracle "
                                        "or output contract" % (workload, seed, side))
                    if result is not None:
                        runs[side].append(result)
            failed = sum(r["failed"] for side in runs.values() for r in side)
            if failed:
                problems.append("%s seed %d: %d failed ops" % (workload, seed, failed))
            sims = {r["metrics"]["sim_ms_per_op"]["value"]
                    for side in runs.values() for r in side}
            if len(sims) > 1:
                problems.append("%s seed %d: sim_ms_per_op differs: %s" %
                                (workload, seed, sorted(sims)))
            entry = {"sim_ms_per_op": sorted(sims), "failed_ops": failed,
                     "metrics": {}}
            if runs["ref"] and len(runs["ref"]) == len(runs["change"]):
                for name, metric in end_to_end.items():
                    entry["metrics"][name] = judge(
                        metric,
                        [r["metrics"][name]["value"] for r in runs["ref"]],
                        [r["metrics"][name]["value"] for r in runs["change"]])
                print_table(workload, seed, entry["metrics"])
            if args.trace:
                entry["trace"] = {}
                for side in ("ref", "change"):
                    ok, result = run_once(sides[side], workload, seed,
                                          args.seconds, True)
                    if not ok:
                        problems.append("%s seed %d: a traced %s run broke its "
                                        "oracle or output contract" %
                                        (workload, seed, side))
                    if result is not None:
                        entry["trace"][side] = {
                            k: v["value"] for k, v in result["metrics"].items()}
                if len(entry["trace"]) == 2:
                    print("%-36s %14s %14s" % ("per-layer (traced)", "ref", "change"))
                    for name in sorted(entry["trace"]["ref"]):
                        print("%-36s %14s %14s" % (
                            name, fmt(entry["trace"]["ref"][name]),
                            fmt(entry["trace"]["change"].get(name, float("nan")))))
            record["runs"]["%s/%d" % (workload, seed)] = entry

    record["problems"] = problems
    record["ok"] = not problems
    for problem in problems:
        print("FAIL: " + problem)
    out = args.out or os.path.join(args.scratch, "ab.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    log("record written to %s" % out)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
