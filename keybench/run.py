#!/usr/bin/env python3
"""Builds and runs the key server benchmark.

Usage (from the repository root):
    python3 keybench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds keybench/ (which compiles the library
from src/) as a Release build in $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only re-check the build. Build output goes to standard
error. The benchmark's own output is passed through unchanged: its last line
is the JSON result.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("churn-65k", "fleet-udp-1k", "signed-wal-k4")
RUN_TIMEOUT_S = 170


def build(build_dir: pathlib.Path) -> pathlib.Path:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "keybench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "keybench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").exists():
        print("keybench: library sources (src/) not found next to keybench/",
              file=sys.stderr)
        return 2
    build_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"keybench: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(build_dir / "work")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("keybench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
