#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hudf_sql|tenants|stream_ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The C++ benchmark program is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run;
its report is passed through, and the last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"}.

Determinism check: every run records the counts and virtual-clock totals
of its first steps (the program's "fingerprint" line) under the build
directory, keyed by the program binary's digest. A later run of the same
binary, workload and seed whose fingerprint differs is flagged and
reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build failed: {err}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            print("build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out_dir, "perfbench")


def check_fingerprint(binary, line):
    """Compares a fingerprint line with the stored one for the same
    binary, workload and seed; stores it when none exists. Returns a list
    of differing keys (empty when consistent or not comparable)."""
    fp = json.loads(line[len("fingerprint "):])
    if not fp.get("complete"):
        return []
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    store = os.path.join(os.path.dirname(binary), "fingerprints", digest)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{fp['workload']}-seed{fp['seed']}.json")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(fp, f, sort_keys=True)
        return []
    with open(path, encoding="utf-8") as f:
        earlier = json.load(f)
    keys = sorted(set(fp) | set(earlier))
    return [k for k in keys if fp.get(k) != earlier.get(k)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines) + "\n")
        print(f"benchmark failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
        if line.startswith("fingerprint "):
            differing = check_fingerprint(binary, line)
            if differing:
                print("determinism MISMATCH with an earlier run of this "
                      "seed: " + ", ".join(differing))
                result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
