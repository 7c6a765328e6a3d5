#!/usr/bin/env python3
"""Build and run the windjoin end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload paper-bmodel --seed 1 --seconds 20 --trace 0

The benchmark is its own Cargo package (e2ebench/Cargo.toml) that builds
against the repository's crates by path. Build output goes to
$CARGO_TARGET_DIR, or to .bench_build at the repository root when that is
unset. Cargo's progress goes to stderr; the benchmark's own lines go to
stdout, the last of which is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "windjoin-e2ebench")
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
