#!/usr/bin/env python3
"""Builds and runs corescope's benchmark.

    python3 perfbench/run.py --workload quick-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then runs it
with the given arguments. Scratch files go to `.bench_tmp/<pid>` (removed
afterwards) and traced runs leave their spans in `.bench_out`. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. Exits non-zero, without a result, when the
build fails.
"""

import os
import shutil
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    # Everything the benchmark writes, including the temporary
    # directories some artifacts make, stays inside the checkout.
    scratch = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    binary = os.path.join(target, "release", "perfbench")
    try:
        return subprocess.run([binary, *sys.argv[1:]], env=dict(env, TMPDIR=scratch)).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
