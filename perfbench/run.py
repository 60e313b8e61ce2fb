#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload bootstrap --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR, or `.bench_build` when it is unset.
The last line of standard output is the result: one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. See
perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bootstrap", "observed_chaos", "routing", "engine_powerlaw")
FLAGS = ("--workload", "--seed", "--seconds", "--trace")
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170

USAGE = """\
usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

  --workload  one of: {}
  --seed      non-negative integer; the same seed gives the same inputs
  --seconds   positive number: how long the run measures
  --trace     0: end-to-end metrics; 1: per-layer metrics
  --help      print this and exit without building or running anything
""".format(", ".join(WORKLOADS))


def fail(msg, code=2):
    sys.stderr.write("run.py: {}\n\n{}".format(msg, USAGE))
    sys.exit(code)


def parse(argv):
    """Returns the flag values, or None for --help."""
    if "--help" in argv or "-h" in argv:
        return None
    values = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        flag, eq, inline = arg.partition("=")
        if flag not in FLAGS:
            fail("unknown argument {!r}".format(arg))
        if flag in values:
            fail("{} given twice".format(flag))
        if eq:
            values[flag] = inline
        elif i + 1 < len(argv):
            i += 1
            values[flag] = argv[i]
        else:
            fail("{} needs a value".format(flag))
        i += 1
    missing = [f for f in FLAGS if f not in values]
    if missing:
        fail("missing {}".format(", ".join(missing)))
    if values["--workload"] not in WORKLOADS:
        fail("unknown workload {!r}".format(values["--workload"]))
    if not values["--seed"].isdigit():
        fail("--seed must be a non-negative integer")
    try:
        if not float(values["--seconds"]) > 0:
            raise ValueError
    except ValueError:
        fail("--seconds must be a positive number")
    if values["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    return values


def main():
    values = parse(sys.argv[1:])
    if values is None:
        sys.stdout.write(USAGE)
        return 0
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return 1
    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary]
    for flag in FLAGS:
        cmd += [flag, values[flag]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded {} s\n".format(RUN_TIMEOUT_S))
        return 1
    if proc.returncode != 0:
        sys.stderr.write("run.py: benchmark exited with {}\n".format(proc.returncode))
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write("run.py: no result line\n")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stderr.write("run.py: malformed result line\n")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
