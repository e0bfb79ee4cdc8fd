#!/usr/bin/env python3
"""Compare two sets of benchmark results, e.g. a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records perfbench/run.py writes under
<build>/results/. Runs are grouped by workload, size and trace flag; each
side's metric is the median over its seeds. The comparison refuses (exit
2) when the two sides' fingerprints differ in anything but the git SHA --
SIMD level, build type, contracts, threads, nproc, size or the set of
seeds -- because such numbers are not comparable. End-to-end metrics are
judged against the bounds in BENCHMARK.json: "worse" when the new median
is worse than the base median by more than the bound, "unresolved" when
either side's own quartile spread is wider than the bound.
"""

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
IGNORED = {"git_sha", "seed"}


def load(directory):
    groups = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path) as f:
            rec = json.load(f)
        fp = rec["fingerprint"]
        groups[(fp["workload"], fp["size"], rec["trace"])].append(rec)
    return groups


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def fingerprint_mismatch(base, new):
    def key(rec):
        return {k: v for k, v in rec["fingerprint"].items()
                if k not in IGNORED}
    keys = [key(r) for r in base + new]
    for k in keys[1:]:
        if k != keys[0]:
            return f"{keys[0]} vs {k}"
    seeds_b = sorted(r["fingerprint"]["seed"] for r in base)
    seeds_n = sorted(r["fingerprint"]["seed"] for r in new)
    if seeds_b != seeds_n:
        return f"seeds {seeds_b} vs {seeds_n}"
    return None


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(sys.argv[1]), load(sys.argv[2])
    status = 0
    for group in sorted(set(base) & set(new)):
        b, n = base[group], new[group]
        why = fingerprint_mismatch(b, n)
        workload, size, traced = group
        title = f"{workload} ({size}, {'traced' if traced else 'untraced'})"
        if why:
            print(f"REFUSED {title}: fingerprints differ: {why}")
            status = 2
            continue
        failed = sum(r["result"]["failed"] for r in b + n)
        print(f"{title}: {len(b)} seeds, failed ops {failed}")
        for name in b[0]["result"]["metrics"]:
            bv = [r["result"]["metrics"][name]["value"] for r in b]
            nv = [r["result"]["metrics"][name]["value"] for r in n]
            unit = b[0]["result"]["metrics"][name]["unit"]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            verdict = ""
            if name in bounds:
                m = bounds[name]
                worse = change if m["better"] == "lower" else -change
                if max(spread(bv), spread(nv)) > m["bound"]:
                    verdict = "unresolved"
                elif worse > m["bound"]:
                    verdict = "WORSE"
                else:
                    verdict = "ok"
            print(f"  {name:34s} {bm:14.6g} -> {nm:14.6g} {unit:6s} "
                  f"{change:+8.2%}  {verdict}")
    for group in sorted(set(base) ^ set(new)):
        print(f"skipped {group}: present on one side only")
    return status


if __name__ == "__main__":
    sys.exit(main())
