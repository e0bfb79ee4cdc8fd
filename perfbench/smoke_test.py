#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, on two seeds. Checks that each run passes its correctness checks
with zero failed operations and prints every metric BENCHMARK.json names,
with its unit, and nothing else.

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, seed, trace, expected):
    """Problems with one tiny run; empty when it passes."""
    res = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", seed, "--seconds", "1", "--trace", trace,
         "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if res.returncode != 0:
        return [f"exit {res.returncode}\n{res.stderr}"]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(out)}")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        problems.append(f"correct={out['correct']} attempted="
                        f"{out['attempted']} failed={out['failed']}\n"
                        f"{res.stderr}")
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        problems.append(f"missing {missing} extra {extra} "
                        f"wrong unit {units}")
    if trace == "0":
        zero = sorted(k for k, v in out["metrics"].items() if v["value"] == 0)
        if zero:
            problems.append(f"end-to-end metrics read 0: {zero}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in ("1", "2"):
            for trace in ("0", "1"):
                tag = f"{workload} seed={seed} trace={trace}"
                problems = check_run(workload, seed, trace, expected[trace])
                print(f"{'FAIL' if problems else 'ok  '} {tag}")
                failures += [f"{tag}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
