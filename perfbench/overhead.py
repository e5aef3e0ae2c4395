#!/usr/bin/env python3
"""Tracing overhead of the benchmark's wrappers.

Runs one workload untraced (--trace 0) and traced (--trace 1) on the same
seed, alternating, and prints the change of each end-to-end metric: the
traced run reports its end-to-end values as `traced.<name>`.

usage (from the repository root):
    python3 perfbench/overhead.py <workload> [seed] [seconds] [pairs]
"""

import json
import statistics
import subprocess
import sys

CMD = ["cargo", "run", "--release", "--quiet", "--offline",
       "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        CMD + ["--workload", workload, "--seed", seed,
               "--seconds", seconds, "--trace", trace],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    seed = sys.argv[2] if len(sys.argv) > 2 else "1"
    seconds = sys.argv[3] if len(sys.argv) > 3 else "20"
    pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 1
    plain, traced = {}, {}
    for _ in range(pairs):
        for name, m in run(workload, seed, seconds, "0").items():
            plain.setdefault(name, []).append(m["value"])
        for name, m in run(workload, seed, seconds, "1").items():
            if name.startswith("traced."):
                traced.setdefault(name[len("traced."):], []).append(m["value"])
    print(f"{workload} seed {seed}, {seconds} s runs, {pairs} pair(s): "
          "median untraced -> traced")
    for name, values in plain.items():
        a = statistics.median(values)
        b = statistics.median(traced.get(name, [float("nan")]))
        change = (b - a) / a * 100 if a else float("nan")
        print(f"  {name:16s} {a:12.5g} -> {b:12.5g}  ({change:+.1f}%)")


if __name__ == "__main__":
    main()
