#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the repository root:

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `e2e_bench` package in release mode (into $CARGO_TARGET_DIR,
default `.bench_build`), then runs its binary with the same arguments.
The binary prints the result as the last line of stdout. Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2e-bench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "e2e-bench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
