#!/usr/bin/env python3
"""Builds and runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload browse|sql_read|sql_mixed \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark is the Rust package in this directory (its own cargo
workspace, with path dependencies on the engine crates). It is built in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then run with
the given arguments; its last line of standard output is the JSON result.
Scratch data and span dumps go to `.perfbench_out/`. `--self-test` runs the
package's tests instead.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
RUN_TIMEOUT_S = 170


def cargo(*args):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", *args, "--release", "--offline", "--locked", "--manifest-path", MANIFEST]
    # Build chatter goes to stderr; stdout carries only the benchmark's report.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode, env["CARGO_TARGET_DIR"]


def main(argv):
    if argv == ["--self-test"]:
        code, _ = cargo("test", "-q")
        return code
    code, target = cargo("build", "-q", "--bin", "perfbench")
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    binary = os.path.join(target, "release", "perfbench")
    proc = subprocess.Popen([binary, *argv])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
