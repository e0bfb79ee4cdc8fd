#!/usr/bin/env python3
"""Build the library and the benchmark program from source, run one workload
and print its result as the last line of stdout.

    python3 perfbench/run.py --workload converge-100k --seed 1 \
        --seconds 20 --trace 0 [--size full|tiny]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Each run also stores its fingerprint and result under
<build>/results/ for perfbench/compare.py; a traced run writes its spans
as Chrome-trace JSON beside it. Traced runs print every per-layer metric
BENCHMARK.json names; the layers a workload bypasses read 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("converge-100k", "stream-20k", "search-11k")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def per_layer_metrics(measured):
    """Every per-layer metric BENCHMARK.json names, in its order; a layer
    the workload bypasses reads 0. Names it does not list are kept, so
    that perfbench/smoke_test.py reports them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: measured.get(m["name"],
                                   {"value": 0, "unit": m["unit"]})
           for m in spec["per_layer"]}
    out.update((k, v) for k, v in measured.items() if k not in out)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        return 1

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(results, stem + ".trace.json")]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        log(f"{args.workload} exited with {res.returncode}")
        return 1
    fingerprint = next(json.loads(line.removeprefix("fingerprint "))
                       for line in lines if line.startswith("fingerprint "))
    result = json.loads(lines[-1])
    fingerprint.update(nproc=os.cpu_count(), git_sha=git_sha())
    if args.trace == "1":
        result["metrics"] = per_layer_metrics(result["metrics"])

    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump({"fingerprint": fingerprint, "trace": args.trace == "1",
                   "result": result}, f, indent=1)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
