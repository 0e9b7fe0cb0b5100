#!/usr/bin/env python3
"""Builds the simulator and the perfbench binary from source, runs one
workload, and prints its metrics; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload ps_train --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR if set,
else .bench_build/. Before reporting, the effective configuration the run
printed is compared with perfbench/physics.json; a mismatch means the run
measured a different model, and nothing is reported.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ps_train", "allreduce_rack", "incast_lanes")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the simulator sources (src/) are not next to perfbench/")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def physics_mismatch(workload, lines):
    """Differences between the run's printed configuration and the pin."""
    with open(os.path.join(HERE, "physics.json")) as f:
        pinned = json.load(f)[workload]
    prefix = "physics %s " % workload
    printed = [json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix)]
    if not printed:
        return ["the run printed no configuration"]
    diffs = []
    for got in printed:
        for key in sorted(set(pinned) | set(got)):
            if pinned.get(key) != got.get(key):
                diffs.append("%s: pinned %r, ran %r" % (key, pinned.get(key), got.get(key)))
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir(), "trace_%s_%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: the run exited with code %d" % (proc.returncode or 1))
    diffs = physics_mismatch(args.workload, lines)
    if diffs:
        sys.stderr.write("perfbench: configuration differs from perfbench/physics.json:\n  " +
                         "\n  ".join(diffs) + "\n")
        sys.exit(3)
    json.loads(lines[-1])  # The result line must be one JSON object.
    print("\n".join(lines))


if __name__ == "__main__":
    main()
