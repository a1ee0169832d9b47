#!/usr/bin/env python3
"""Interleaved A/B of the repository benchmark: a parent commit against
the working tree.

    python3 tools/perfbench_ab.py [--parent REV] [--workload NAME|all]
                                  [--pairs N] [--seconds S] [--seed N]
                                  [--trace 0|1]

(`make perfbench-ab PARENT=... WORKLOAD=... PAIRS=... SECONDS=...`.)

Run from anywhere inside a checkout. Both sides are copied into one
temporary directory (under $TMPDIR): the parent as `git archive REV`,
the change as the working tree's tracked and untracked, not ignored,
files. Each side is built and run through its own perfbench/run.py,
so nothing is written into the checkout and each side measures its own
benchmark code. Pair i runs at seed SEED + i, parent first in even
pairs and change first in odd ones, so host drift (steal time, thermal
state) falls on both sides alike. The temporary directory is removed
on every exit, SIGINT and SIGTERM included.

For every metric BENCHMARK.json names that the runs report (the
end-to-end ones, or with --trace 1 the per-layer ones), the summary prints
each side's median and interquartile range, every pair's change/parent
ratio, the ratios' median, how many pairs the change won, and the gap
between the medians beside the parent's IQR; then the failed-operation
counts of every run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile


def git(root, *args):
    return subprocess.run(["git", "-C", root] + list(args), check=True,
                          stdout=subprocess.PIPE).stdout


def copy_parent(root, rev, dest):
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", root, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"perfbench-ab: git archive {rev} failed")


def copy_working_tree(root, dest):
    files = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in files.decode().split("\0"):
        src = os.path.join(root, rel)
        if rel and os.path.isfile(src):
            os.makedirs(os.path.join(dest, os.path.dirname(rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def quartiles(xs):
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def run_side(side_dir, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=side_dir, stdout=subprocess.PIPE, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench-ab: {side_dir}: run.py exited {proc.returncode}")
    return json.loads(lines[-1])


def summarise(workload, metrics, runs):
    print(f"\n== {workload}: {len(runs)} pairs (ratio = change / parent)")
    for name, better in metrics:
        if name not in runs[0]["parent"]["metrics"]:
            continue
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
        wins = sum(1 for p, c in zip(parent, change) if (c < p if better == "lower" else c > p))
        pq, cq = quartiles(parent), quartiles(change)
        print(f"{name:28} parent {pq[1]:10.4f} [{pq[0]:.4f}-{pq[2]:.4f}]"
              f"  change {cq[1]:10.4f} [{cq[0]:.4f}-{cq[2]:.4f}]"
              f"  median ratio {quartiles(ratios)[1]:.3f}  change better in {wins}/{len(runs)}"
              f"  |median gap| {abs(cq[1] - pq[1]):.4f} vs parent IQR {pq[2] - pq[0]:.4f}")
        print(f"{'':28} ratios " + " ".join(f"{x:.3f}" for x in ratios))
    for side in ("parent", "change"):
        print(f"{'failed':28} {side:6} " + " ".join(
            f"{r[side]['failed']}{'' if r[side]['correct'] else '!'}" for r in runs))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--workload", default="strategy_mix")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    rev = git(root, "rev-parse", "--verify", args.parent + "^{commit}").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    metrics = [(m["name"], m["better"]) for m in manifest["end_to_end"] + manifest["per_layer"]]
    workloads = ([w["name"] for w in manifest["workloads"]]
                 if args.workload == "all" else [args.workload])

    # SIGTERM unwinds like ^C, so the finally below always runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = tempfile.mkdtemp(prefix="perfbench-ab-")
    try:
        sides = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        copy_parent(root, rev, sides["parent"])
        copy_working_tree(root, sides["change"])
        print(f"# perfbench-ab: parent {rev[:12]} vs the working tree; "
              f"{args.pairs} pairs x {args.seconds:g} s, seeds {args.seed}.."
              f"{args.seed + args.pairs - 1}, trace={args.trace}", flush=True)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {}
                for side in order:
                    pair[side] = run_side(sides[side], workload, seed, args.seconds, args.trace)
                    values = " ".join(f"{k}={v['value']:.4f}" for k, v in pair[side]["metrics"].items())
                    print(f"# {workload} pair {i + 1} seed={seed} {side}: failed={pair[side]['failed']}"
                          f" {values}", flush=True)
                runs.append(pair)
            summarise(workload, metrics, runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
