#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which compiles ../src) into .bench_build/perfbench;
later calls rebuild incrementally. The last stdout line is the result
object. Every simulated quantity of a run is also kept in a ledger keyed
by the binary's hash, workload and seed; a later run of the same binary
and seed that disagrees on any of them is a determinism failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure + build; returns the benchmark binary or None."""
    os.makedirs(BUILD, exist_ok=True)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "el_perfbench",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "el_perfbench")


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_ledger(binary, workload, seed, simulated):
    """Record or compare this run's simulated quantities; returns the
    names that differ from an earlier run of the same binary and seed."""
    ledger = os.path.join(BUILD, "ledger", digest(binary))
    os.makedirs(ledger, exist_ok=True)
    path = os.path.join(ledger, f"{workload}-{seed}.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    drift = sorted(k for k in simulated if k in seen and seen[k] != simulated[k])
    merged = dict(simulated)
    merged.update(seen)  # the first value seen stays the reference
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(merged, f, sort_keys=True)
    os.replace(tmp, path)
    return drift


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-{args.seed}.json")]
    os.makedirs(os.path.join(BUILD, "work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(BUILD, "work"))
    try:
        proc = subprocess.run(cmd + ["--work-dir", work], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return 1

    prefix = "deterministic "
    simulated = next((json.loads(l[len(prefix):]) for l in lines
                      if l.startswith(prefix)), None)
    if simulated is None:
        print("perfbench: run printed no simulated quantities", file=sys.stderr)
        result["correct"] = False
    else:
        drift = check_ledger(binary, args.workload, args.seed, simulated)
        if drift:
            print("perfbench: DETERMINISM FAILURE: %s differ from an earlier "
                  "run of this binary with seed %d" % (", ".join(drift),
                                                       args.seed),
                  file=sys.stderr)
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
