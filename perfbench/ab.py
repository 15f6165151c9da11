#!/usr/bin/env python3
"""Interleaved same-machine A/B of one workload: a base git ref against
the current checkout.  Run from the root of a git checkout:

    python3 perfbench/ab.py --base 1a1185c --workload fig1-stream --pairs 10

The base tree is exported with `git archive` into .bench_build/ab/<ref>,
given the current checkout's perfbench/ so both sides run identical
benchmark code, and built there with `dune build --root .`.  A
workload whose program does not build at the base (its APIs do not
exist there) is reported as skipped.  Pairs alternate which side runs
first; the report gives each side's median and quartiles per metric
and how many pairs the current checkout won.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

METRICS = ["wall_s", "events_per_host_s", "alloc_bytes_per_event", "run_p50_ms"]


def export_base(ref, workdir):
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    os.makedirs(workdir)
    archive = subprocess.run(["git", "archive", "--format=tar", ref],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", workdir], input=archive, check=True)
    shutil.rmtree(os.path.join(workdir, "perfbench"), ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))


def build_in(root, workload):
    target = "./perfbench/ocaml/%s/main.exe" % run.WORKLOADS[workload]
    proc = subprocess.run(["dune", "build", "--root", ".", target], cwd=root,
                          env=run.DUNE_ENV, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[:3]
    return os.path.join(os.path.abspath(root), "_build", "default", target[2:]), []


def measure(exe, args, pins):
    records = run.run_program(exe, run.variant_of(args.seed), args.seconds)
    _, failed, _ = run.check_records(records, pins, args.workload)
    metrics, _ = run.end_to_end(records)
    if not metrics:
        run.die("%s completed no measured unit" % exe)
    return {m: metrics[m][0] for m in METRICS}, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", default="fig1-stream", choices=sorted(run.WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(run.HERE, "pins.json")) as f:
        pins = json.load(f)

    workdir = os.path.join(".bench_build", "ab", args.base)
    export_base(args.base, workdir)
    base_exe, why = build_in(workdir, args.workload)
    if base_exe is None:
        print("skipped %s: its program does not build at %s" % (args.workload, args.base))
        for line in why:
            print("  " + line)
        return 0
    head_exe, why = build_in(".", args.workload)
    if head_exe is None:
        run.die("the current checkout does not build: " + " ".join(why))

    sides = {"base": [], "head": []}
    failures = {"base": 0, "head": 0}
    for i in range(args.pairs):
        order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
        for side in order:
            values, failed = measure(base_exe if side == "base" else head_exe, args, pins)
            sides[side].append(values)
            failures[side] += failed
        print("pair %d: base wall %.4f s, head wall %.4f s"
              % (i + 1, sides["base"][-1]["wall_s"], sides["head"][-1]["wall_s"]), flush=True)

    higher = {"events_per_host_s"}
    print("\n%s, %d pairs of %g s at seed %d: %s vs current checkout"
          % (args.workload, args.pairs, args.seconds, args.seed, args.base))
    print("pinned-outcome mismatches: base %d, head %d" % (failures["base"], failures["head"]))
    print("%-22s %30s %30s %9s" % ("metric", "base median [q1, q3]", "head median [q1, q3]",
                                  "head wins"))
    for m in METRICS:
        cols = []
        for side in ("base", "head"):
            v = [s[m] for s in sides[side]]
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            cols.append("%.6g [%.6g, %.6g]" % (statistics.median(v), q[0], q[2]))
        wins = sum(1 for b, h in zip(sides["base"], sides["head"])
                   if (h[m] > b[m] if m in higher else h[m] < b[m]))
        print("%-22s %30s %30s %5d/%d" % (m, cols[0], cols[1], wins, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
