#!/usr/bin/env python3
"""Alternating A/B runs of perfbench: a base revision against the working tree.

    python3 tools/perfbench_ab.py --base REV --workload W --seed S --pairs N

The base revision is checked out as a detached git worktree under
`_ab/base` (git-ignored, and skipped by dune like every `_` directory),
reused by later calls.  Each pair runs `python3 perfbench/run.py
--trace 0` once in each checkout, the base first in odd pairs and the
working tree first in even ones, so a drift of the host's speed falls on
both sides alike.  The summary gives, for each end-to-end metric of
BENCHMARK.json, each side's median and quartiles, the change/base ratio
of the medians, the pairs the change won (ties count for neither) and
whether the gain rule holds: the change wins at least 9 of 10 pairs and
the medians differ by more than the base's interquartile range.  The
raw results go to `_ab/<workload>-<seed>.json`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "_ab")
BASE_DIR = os.path.join(AB_DIR, "base")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout_base(rev):
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    if os.path.isdir(BASE_DIR):
        git("checkout", "--quiet", "--detach", commit, cwd=BASE_DIR)
    else:
        os.makedirs(AB_DIR, exist_ok=True)
        git("worktree", "add", "--quiet", "--detach", BASE_DIR, commit)
    return commit


def run_once(root, workload, seed):
    """The result object of one timed run, from the last line of its stdout."""
    r = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"perfbench_ab: run in {root} failed (exit {r.returncode})")
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarise(spec, runs):
    pairs = len(runs["base"])
    print(f"{pairs} pairs; every run correct and failed 0: "
          f"{all(r['correct'] and r['failed'] == 0 for side in runs.values() for r in side)}")
    head = f"{'metric':18} {'base median [q1, q3]':32} {'change median [q1, q3]':32} " \
           f"{'ratio':>7} {'wins':>6}  gain rule"
    print(head)
    print("-" * len(head))
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in rs] for side, rs in runs.items()}
        b1, bm, b3 = quartiles(vals["base"])
        c1, cm, c3 = quartiles(vals["change"])
        wins = sum(1 for b, c in zip(vals["base"], vals["change"])
                   if (c < b if lower else c > b))
        ratio = cm / bm if bm else float("nan")
        better = cm < bm if lower else cm > bm
        rule = wins * 10 >= 9 * pairs and better and abs(cm - bm) > (b3 - b1)
        print(f"{name:18} {bm:10.4g} [{b1:.4g}, {b3:.4g}]{'':6} "
              f"{cm:10.4g} [{c1:.4g}, {c3:.4g}]{'':6} {ratio:7.3f} {wins:3d}/{pairs:<2d}  "
              f"{'holds' if rule else '-'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    commit = checkout_base(args.base)
    print(f"base {commit[:12]} ({BASE_DIR}) against the working tree ({ROOT}); "
          f"{args.workload} seed {args.seed}", flush=True)
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = [("base", BASE_DIR), ("change", ROOT)]
        if i % 2:
            order.reverse()
        for side, root in order:
            runs[side].append(run_once(root, args.workload, args.seed))
        p50 = {s: runs[s][-1]["metrics"]["solve_s_p50"]["value"] for s in runs}
        print(f"pair {i + 1}: solve_s_p50 base {p50['base']:.5f} change {p50['change']:.5f}",
              flush=True)
    out = os.path.join(AB_DIR, f"{args.workload}-{args.seed}.json")
    with open(out, "w") as f:
        json.dump({"base": commit, "workload": args.workload, "seed": args.seed,
                   "runs": runs}, f, indent=1)
    summarise(spec, runs)
    print(f"raw results: {out}")


if __name__ == "__main__":
    main()
