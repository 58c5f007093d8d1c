#!/usr/bin/env python3
"""Build the live-engine benchmark from source and run one workload.

    python3 livebench/run.py --workload full-stream --seed 1 --seconds 32 --trace 0

The engine (the repository's src/ tree) and the benchmark build into
.bench_build/livebench under the checkout root as an incremental Release
build. Build output goes to stderr. The benchmark prints its metrics to
stdout and ends with one JSON line; the exit code is non-zero on a build
failure or on any correctness failure.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "livebench"
RUN_TIMEOUT_SECONDS = 170
DEFAULT_SECONDS = 32  # BENCHMARK.json run_seconds: the bounds assume it


def build(*targets):
    """Configure (once) and build `targets`; exits non-zero on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"livebench: no engine sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("livebench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["full-stream", "delta-churn", "durable-pfs"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-final", action="store_true",
                        help="flip one byte of the expected final model "
                             "(the correctness gate must then fail)")
    args = parser.parse_args()

    build("live_bench")
    scratch = BUILD / "scratch" / f"run-{os.getpid()}"
    command = [str(BUILD / "live_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.corrupt_final:
        command.append("--corrupt-final")
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_SECONDS).returncode
    except subprocess.TimeoutExpired:
        print(f"livebench: run exceeded {RUN_TIMEOUT_SECONDS} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
