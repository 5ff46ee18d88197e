#!/usr/bin/env python3
"""Builds and runs the EILID benchmark.

    python3 perfbench/run.py --workload sweep|cfi[,...]|all \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark crate is built in release
mode (offline; into $CARGO_TARGET_DIR when set, else perfbench/target),
then run once per named workload. Every metric is printed by name with
its unit; the last line of standard output is the JSON result of the
last workload run. The exit code is non-zero when the build fails or
any op fails its correctness check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep", "cfi"]


def build():
    """Builds the benchmark binary; returns its path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        return None
    for line in proc.stdout.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if message.get("reason") == "compiler-artifact" and message.get("executable"):
            if message["target"]["name"] == "eilid_perfbench":
                return message["executable"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.trace:
        # One traced run covers the layers of every workload, and of the
        # unlisted `rollout` too.
        names = names[:1]

    binary = build()
    if binary is None:
        print("benchmark build failed", file=sys.stderr)
        return 1

    status = 0
    for name in names:
        proc = subprocess.run(
            [binary, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=sys.stdout, stderr=sys.stderr,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
