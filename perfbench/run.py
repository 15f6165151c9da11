#!/usr/bin/env python3
"""Benchmark entry point for the mmcast simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig1-stream --seed 3 --seconds 30 --trace 0

It builds the workload's program (perfbench/ocaml/<workload>/main.exe)
with dune, runs it on input variant seed mod 16 for --seconds, checks
every simulated outcome the program reports against perfbench/pins.json,
and prints one line per metric
followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run and
writes the span ledger to .bench_build/perfbench/.

Exit codes: 0 on a completed run (failed operations are reported, not
fatal; a run whose every unit failed reports no metrics), 2 when the
workload program cannot be built or does not complete.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "fig1-stream": "fig1_stream",
    "fig1-observed": "fig1_observed",
    "scale-matrix": "scale_matrix",
    "explore-pct": "explore_pct",
}
# A workload's inputs are a function of seed mod VARIANTS, and every
# variant's outcomes are pinned.
VARIANTS = 16
# The minimal repro the seeded graft bug must shrink to.
REPRO_SHAPE = "2r/3l/2h/1ev/0f"
# Engine scheduling categories reported as named metrics; any other
# category appears in the ledger's layer medians only.
CATEGORIES = ["net", "traffic", "pim", "mld", "mipv6", "monitor", "faults"]
LEDGER_DIR = os.path.join(".bench_build", "perfbench")
# Keep every build output inside the checkout: no shared dune cache.
DUNE_ENV = dict(os.environ, DUNE_CACHE="disabled")
# The reference kernel's nominal time: a unit whose kernel took exactly
# this long is reported in measured seconds (see Pb.kernel).
REFERENCE_S = 0.02
# A workload program must finish well inside the 180 s a run may take.
PROGRAM_TIMEOUT_S = 170


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def variant_of(seed):
    return seed % VARIANTS


def build(program):
    """Build perfbench/ocaml/<program>/main.exe; return its path."""
    target = "./perfbench/ocaml/%s/main.exe" % program
    if not os.path.isfile("dune-project"):
        die("no dune-project here: run from the root of a source checkout")
    proc = subprocess.run(["dune", "build", "--root", ".", target], env=DUNE_ENV,
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die("building %s failed" % target)
    return os.path.join("_build", "default", target[2:])


def run_program(exe, variant, seconds, trace=0):
    cmd = [exe, "--variant", str(variant), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=PROGRAM_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("workload program exceeded %d s" % PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        die("workload program exited with code %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


# ---- correctness ----

def check_records(records, pins, workload):
    """Count (attempted, failed, reasons) over the program's checked records.

    Every "run" record must equal its pinned outcome field for field and
    report zero violations; every traced re-drive must reproduce the
    digest of the untraced run it repeats; every escaped exception is a
    failed operation.  An outcome is pinned under its variant or, when
    every variant gives the same one, under "all"."""
    start = next(r for r in records if r["kind"] == "start")
    variant = str(start["variant"])
    pinned = pins.get(workload, {})
    attempted = failed = 0
    reasons = []
    digests = {}

    def fail(reason):
        nonlocal failed
        failed += 1
        if len(reasons) < 10:
            reasons.append(reason)

    for r in records:
        kind = r["kind"]
        if kind == "run":
            attempted += 1
            out = {k: v for k, v in r.items() if k != "kind"}
            key = out["key"]
            if "digest" in out:
                digests[key] = out["digest"]
            if out.get("violations", 0) != 0:
                fail("%s: %d invariant violation(s)" % (key, out["violations"]))
            elif key == "repro" and not (out["found"] and out["shape"] == REPRO_SHAPE
                                         and out["schedule_replays"] and out["shrink_replays"]):
                fail("repro: seeded bug not found, shrunk to %s or not replayed" % out["shape"])
            else:
                want = pinned.get(variant, {}).get(key, pinned.get("all", {}).get(key))
                if want is None:
                    fail("%s: no pinned outcome for variant %s" % (key, variant))
                elif want != out:
                    diff = sorted(k for k in set(out) | set(want) if out.get(k) != want.get(k))
                    fail("%s: differs from the pinned outcome in %s"
                         % (key, ", ".join(diff)))
        elif kind == "redrive":
            attempted += 1
            if digests.get(r["key"]) != r["digest"]:
                fail("%s: traced re-drive digest differs" % r["key"])
        elif kind == "error":
            attempted += 1
            fail("exception: " + r["message"])
    return attempted, failed, reasons


# ---- statistics ----

def percentile(samples, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    xs = sorted(samples)
    if not xs:
        return float("nan")
    pos = p * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_fraction(n):
    """The highest percentile with at least ten samples beyond it."""
    return max(0.5, 1.0 - 10.0 / n) if n else 0.5


def normalise(seconds, record):
    """Measured seconds in reference-normalised seconds: scaled by the
    nominal kernel time over the kernel time measured with them."""
    return seconds * REFERENCE_S / record["reference_s"]


def end_to_end(records):
    """The end-to-end metrics as {name: (value, unit)}, and notes; no
    metrics when no unit completed (the run's failures say why).  Every
    time is reference-normalised: a unit's by the mean kernel time over
    its slices, a set-up's by the kernel time just before it."""
    units = [r for r in records if r["kind"] == "unit" and not r["warmup"] and not r["traced"]]
    setups = [normalise(r["s"], r) for r in records
              if r["kind"] == "setup" and not r["warmup"]]
    if not units or not setups:
        return {}, ["no measured unit completed"]
    end = next(r for r in records if r["kind"] == "end")
    walls = [normalise(u["wall_s"], u) for u in units]
    runs = [normalise(ms, u) for u in units for ms in u["run_ms"]]
    tail = tail_fraction(len(runs))

    def rate(field):
        return statistics.median(u[field] / w for u, w in zip(units, walls))

    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "alloc_bytes_per_event": (sum(u["alloc_bytes"] for u in units)
                                  / sum(u["events"] for u in units), "B/event"),
        "peak_heap_mb": (end["peak_heap_mb"], "MB"),
        "sim_s_per_host_s": (rate("sim_s"), "s/s"),
        "events_per_host_s": (rate("events"), "1/s"),
        "deliveries_per_host_s": (rate("deliveries"), "1/s"),
        "schedules_per_host_s": (rate("schedules"), "1/s"),
        "run_p50_ms": (percentile(runs, 0.5), "ms"),
        "run_tail_ms": (percentile(runs, tail), "ms"),
    }
    notes = ["%d measured unit(s), %d set-up repetition(s), %d per-run sample(s); "
             "run_tail_ms is p%.1f" % (len(units), len(setups), len(runs), 100 * tail),
             "times are reference-normalised; measured median unit wall %.4g s, "
             "median reference kernel %.4g ms (nominal %g ms)"
             % (statistics.median(u["wall_s"] for u in units),
                1000 * statistics.median(u["reference_s"] for u in units),
                1000 * REFERENCE_S)]
    return metrics, notes


# ---- traced run: per-layer metrics and the span ledger ----

def self_times(spans):
    """Per span name: count, total and self seconds (span minus children)."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + (s["end"] - s["start"])
    out = {}
    for s in spans:
        d = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += d
        row["self_s"] += d - child.get(s["id"], 0.0)
    return out


PER_LAYER = (
    ["engine.events", "engine.dispatch_s"]
    + ["engine.events." + c for c in CATEGORIES]
    + ["engine.cb_s." + c for c in CATEGORIES]
    + ["net.tx_packets", "net.tx_bytes", "net.drops", "net.ns_per_delivery",
       "ipv6.frames", "ipv6.encode_ns", "ipv6.decode_ns", "ipv6.malformed_drops",
       "obs.spans", "obs.marks", "obs.capture_frames", "obs.capture_bytes", "obs.export_s",
       "check.samples", "check.sample_us", "check.share",
       "scale.gen_s", "scale.build_s", "scale.cell_runs",
       "explore.runs", "explore.distinct", "explore.distinct_frac",
       "explore.shrink_oracle_runs", "explore.shrink_s", "explore.repro_s",
       "parallel.busy_frac",
       "gc.minor", "gc.major", "gc.promoted_bytes", "gc.top_heap_mb",
       "pimdm.ctrl_msgs", "mld.ctrl_msgs", "mipv6.binding_updates", "mipv6.tunnel_frac",
       "mmcast.sent", "mmcast.delivered", "mmcast.duplicates",
       "trace.overhead_frac"])

UNITS = {"_s": "s", "_ns": "ns", "ns_per_delivery": "ns", "_us": "us", "_frac": "ratio",
         "_mb": "MB", "_bytes": "B", "share": "ratio"}


def unit_of(name):
    if ".cb_s." in name:
        return "s"
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(records, workload):
    layers = [r["metrics"] for r in records if r["kind"] == "layer"]
    traced = [normalise(r["wall_s"], r) for r in records
              if r["kind"] == "unit" and r["traced"] and not r["warmup"]]
    plain = [normalise(r["wall_s"], r) for r in records
             if r["kind"] == "unit" and not r["traced"] and not r["warmup"]]
    if not layers or not traced or not plain:
        return {}, None

    def med(name):
        return statistics.median(m.get(name, 0.0) for m in layers)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    derived = {
        "net.ns_per_delivery": ratio(med("engine.cb_s.net"), med("engine.events.net"), 1e9),
        "check.sample_us": ratio(med("engine.cb_s.monitor"), med("check.samples"), 1e6),
        "check.share": ratio(med("engine.cb_s.monitor"), med("engine.run_s")),
        "scale.build_s": ratio(med("scale.build_s"), med("scale.builds")),
        "explore.distinct_frac": ratio(med("explore.distinct"), med("explore.runs")),
        "mipv6.tunnel_frac": ratio(med("mipv6.tunnelled_bytes"), med("mipv6.data_bytes")),
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    }
    metrics = {n: (derived[n] if n in derived else med(n), unit_of(n)) for n in PER_LAYER}
    spans = [r for r in records if r["kind"] == "span"]
    ledger = {
        "schema": "mmcast-perfbench-ledger/1",
        "workload": workload,
        "traced_units": len(traced),
        "untraced_units": len(plain),
        "tracing_overhead": {"traced_wall_s": statistics.median(traced),
                             "untraced_wall_s": statistics.median(plain),
                             "overhead_frac": derived["trace.overhead_frac"]},
        "spans": self_times(spans),
        "layer_medians": {k: statistics.median(m.get(k, 0.0) for m in layers)
                          for k in sorted({k for m in layers for k in m})},
        "metrics": {n: v for n, (v, _) in metrics.items()},
    }
    return metrics, ledger


def report(records, pins, workload, seed, trace):
    """Check a program's records and turn them into the result object;
    returns (result, lines to print before it)."""
    attempted, failed, reasons = check_records(records, pins, workload)
    if trace:
        metrics, ledger = per_layer(records, workload)
        notes = []
        if ledger is not None:
            os.makedirs(LEDGER_DIR, exist_ok=True)
            path = os.path.join(LEDGER_DIR, "ledger-%s-seed%d.json" % (workload, seed))
            with open(path, "w") as f:
                json.dump(ledger, f, indent=1, sort_keys=True)
            notes.append("span ledger -> " + path)
        else:
            notes.append("no traced and untraced unit pair completed")
    else:
        metrics, notes = end_to_end(records)
    lines = ["FAILED " + reason for reason in reasons] + notes
    lines += ["%-28s %16.6g %s" % (name, value, unit) for name, (value, unit) in metrics.items()]
    lines.append("runs_failed_frac %.4f (%d of %d checked operations)"
                 % (failed / attempted if attempted else 1.0, failed, attempted))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    path = os.path.join(HERE, "pins.json")
    try:
        with open(path) as f:
            pins = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read pins %s: %s" % (path, e))
    exe = build(WORKLOADS[args.workload])
    records = run_program(exe, variant_of(args.seed), args.seconds, args.trace)
    result, lines = report(records, pins, args.workload, args.seed, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
