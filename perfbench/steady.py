#!/usr/bin/env python3
"""Steadiness report for the benchmark's end-to-end metrics.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--out set.json] [--against earlier.json]

Runs perfbench/run.py (--trace 0) once per workload and seed, interleaving the
workloads, then prints for every end-to-end metric its median, quartiles
(statistics.quantiles(n=4)), spread = (q3 - q1) / |median|, unit and sample
count. A metric whose spread exceeds its bound in BENCHMARK.json is flagged,
setup_s included. With --against, each median is also compared with the
same metric's median in an earlier --out file and flagged when it is worse
by more than the bound. Runs made with different
kernel members are never compared: the script refuses instead.

Exits 1 if anything is flagged or any run failed, 2 on a member mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    res = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    member = None
    for line in lines:
        if line.startswith("kernel member: "):
            member = line.split(": ", 1)[1]
    result = json.loads(lines[-1]) if res.returncode == 0 and lines else None
    return member, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return q1, med, q3, (q3 - q1) / abs(med)


def worse_by(old, new, better):
    """Share of |old| by which new is worse than old (negative = better)."""
    delta = (old - new) if better == "higher" else (new - old)
    return delta / abs(old)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the collected values here")
    parser.add_argument("--against", help="an earlier --out file to compare")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    collected = {w: {"member": None, "runs": []} for w in workloads}
    bad = False
    for seed in seeds:
        for w in workloads:
            member, result = run_once(w, seed, args.seconds)
            entry = collected[w]
            if entry["member"] not in (None, member):
                print("refusing to compare: %s ran kernel member %s and %s"
                      % (w, entry["member"], member))
                return 2
            entry["member"] = member
            if result is None or not result["correct"]:
                print("%s seed %d: run failed or incorrect: %s" % (w, seed, result))
                bad = True
                continue
            entry["runs"].append({"seed": seed, "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in
                                              result["metrics"].items()}})
            print("%s seed %d done" % (w, seed), file=sys.stderr, flush=True)

    for w in workloads:
        entry = collected[w]
        print("\n%s (kernel member %s, %d runs)" % (w, entry["member"],
                                                    len(entry["runs"])))
        if earlier and w in earlier and earlier[w]["member"] != entry["member"]:
            print("refusing to compare: %s ran kernel member %s, the earlier "
                  "set %s" % (w, entry["member"], earlier[w]["member"]))
            return 2
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in entry["runs"]
                      if m["name"] in r["metrics"]]
            if len(values) < 2:
                print("  %-18s too few samples (%d)" % (m["name"], len(values)))
                bad = True
                continue
            q1, med, q3, s = spread(values)
            notes = []
            if s > m["bound"]:
                notes.append("SPREAD OVER BOUND")
                bad = True
            elif s > m["bound"] / 3:
                notes.append("spread over bound/3")
            if earlier and w in earlier:
                old = [r["metrics"][m["name"]] for r in earlier[w]["runs"]]
                d = worse_by(statistics.median(old), med, m["better"])
                notes.append("vs earlier %+.3f" % d)
                if d > m["bound"]:
                    notes.append("MEDIAN WORSE THAN BOUND")
                    bad = True
            print("  %-18s median %.6g %s  q1 %.6g  q3 %.6g  spread %.4f "
                  "(bound %g)  n=%d  %s" % (m["name"], med, m["unit"], q1, q3,
                                             s, m["bound"], len(values),
                                             "; ".join(notes)))

    if args.out:
        with open(args.out, "w") as f:
            json.dump(collected, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
