#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmark/run.py [--seed S] [--out FILE]       # every workload once
    python3 benchmark/run.py compare A B

`--trace 1` runs the `benchmark-trace` binary (per-layer metrics and a
Chrome trace under bench-trace/ in the Cargo target directory); everything
else runs `benchmark`.
Cargo's output goes to stderr, so the last line of stdout is the result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    """Builds both binaries; returns {name: path}."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--bins",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--message-format", "json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    exes = {}
    for line in proc.stdout.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    return exes


def main():
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    exes = build()
    exe = exes["benchmark-trace" if traced else "benchmark"]
    os.execv(exe, [exe] + args)


if __name__ == "__main__":
    main()
