#!/usr/bin/env python3
"""Record the pinned simulated outcomes that run.py checks.

    python3 perfbench/pin.py [WORKLOAD ...]

For every workload (default: all) and every input variant (seed mod 16)
it runs the workload program in pinning mode (--seconds 0: set-up plus one
unchecked unit), requires every repeated record of one key to be
identical, and rewrites that workload's entry in perfbench/pins.json.
An outcome that every variant shares is pinned once, under "all".
Re-pin only when a change is meant to alter simulated behaviour, and
say so in the change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def pin_variant(exe, workload, variant):
    outcomes = {}
    for r in run.run_program(exe, variant, 0):
        if r["kind"] == "error":
            run.die("%s variant %d raised: %s" % (workload, variant, r["message"]))
        if r["kind"] != "run":
            continue
        out = {k: v for k, v in r.items() if k != "kind"}
        if outcomes.setdefault(out["key"], out) != out:
            run.die("%s variant %d: %s is not deterministic" % (workload, variant, out["key"]))
    return outcomes


def pin_workload(exe, workload):
    by_variant = [pin_variant(exe, workload, v) for v in range(run.VARIANTS)]
    shared = {k: out for k, out in by_variant[0].items()
              if all(o.get(k) == out for o in by_variant)}
    pinned = {"all": shared} if shared else {}
    for v, outcomes in enumerate(by_variant):
        own = {k: out for k, out in outcomes.items() if k not in shared}
        if own:
            pinned[str(v)] = own
    return pinned


def main():
    names = sys.argv[1:] or sorted(run.WORKLOADS)
    path = os.path.join(run.HERE, "pins.json")
    pins = {}
    if os.path.exists(path):
        with open(path) as f:
            pins = json.load(f)
    for workload in names:
        pins[workload] = pin_workload(run.build(run.WORKLOADS[workload]), workload)
        print("pinned %s" % workload, file=sys.stderr)
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
