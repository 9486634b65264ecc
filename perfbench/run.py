#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The harness (perfbench/benches, a Cargo package of its own) is built in
release mode, offline, into $CARGO_TARGET_DIR (default .bench_build). Its
standard output is passed through: the last line is the result object with
the keys correct, attempted, failed and metrics. A failed build exits
non-zero without printing a result.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = HERE / "benches" / "Cargo.toml"
EXE = "rrb-perfbench"
# One run must end within 180 s; leave room for the no-op build check.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), CARGO_NET_OFFLINE="true")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([str(target / "release" / EXE), *sys.argv[1:]], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
