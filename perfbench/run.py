#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore_exhaustive|check_suite|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with cargo (offline,
release) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset;
build output goes to standard error. The workload's own output, whose
last line is the result object, goes to standard output, and this script
exits with the workload's exit code. It exits non-zero without running
anything when the build fails.
"""

import os
import subprocess
import sys

# A run measures at most 60 s plus its set-up and a traced replica; this
# bounds a hung run well inside the three minutes a run may take.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(root, target_dir, "release", "lineup-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
