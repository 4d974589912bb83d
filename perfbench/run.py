#!/usr/bin/env python3
"""Build the MOARD benchmark from source and run one workload.

    python3 perfbench/run.py --workload dfi_campaign|analytic_grid|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark is a package of its own
(perfbench/Cargo.toml) built against the repository's crates by path into
$CARGO_TARGET_DIR (default .bench_build).  Build output goes to standard
error; the last line of standard output is the benchmark's JSON result.
Stores and side reports are written under <target dir>/perfbench.
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
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "moard-perfbench")
    work_dir = os.path.join(target, "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir],
                         env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
