#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in .bench_build/perfbench under the checkout root; build
output goes to standard error so the benchmark's last standard-output line
stays its JSON result. Exits non-zero, without a result, when the build
fails (for example when the library sources are absent).
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build(env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True, env=env)


def main():
    # Keep the compiler's temporary files inside the checkout.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        build(env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    return subprocess.run([str(BUILD / "perfbench"), *sys.argv[1:]],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
