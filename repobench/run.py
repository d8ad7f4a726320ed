#!/usr/bin/env python3
"""Builds the repobench binary from source and runs one workload.

Run from the root of the repository:

    python3 repobench/run.py --workload kl1-pim --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build in the working
directory); its output goes to standard error, so the benchmark's last line
of standard output stays its JSON result. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("repobench: build failed", file=sys.stderr)
        return build.returncode if build.returncode > 0 else 1
    exe = os.path.join(target, "release", "repobench")
    code = subprocess.run([exe] + sys.argv[1:], env=env).returncode
    # A child killed by a signal reports -N; exit as a shell would.
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
