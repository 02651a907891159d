#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <trickle|peak|recommend> --seed <n> \
        --seconds <s> --trace <0|1>
    python3 perfbench/run.py f1|f2|f3

Run from the repository root. The binary is built with cargo, offline,
into $CARGO_TARGET_DIR (default: .bench_build); its standard output is
passed through, so the last line is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def find_cargo():
    cargo = shutil.which("cargo")
    if cargo:
        return cargo
    home_cargo = os.path.join(os.path.expanduser("~"), ".cargo", "bin", "cargo")
    return home_cargo if os.path.exists(home_cargo) else None


def main():
    cargo = find_cargo()
    if cargo is None:
        print("perfbench: cargo not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            [cargo, "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST],
            env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "pprox-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
