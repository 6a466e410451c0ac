#!/usr/bin/env python3
"""Build netloc's benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (netloc compiled from
../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. Build output goes to stderr, so
the last line of standard output is the benchmark's JSON result. Exits
non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("table3_cold", "routing_whatif", "serve_warm", "scale_budgeted")


def output_root() -> Path:
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else REPO / root


def build(target: str) -> Path:
    build_dir = output_root() / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", target,
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return build_dir / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_selftest" if args.selftest else "netloc_perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run([str(binary)], stdout=sys.stderr).returncode

    root = output_root()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--workdir", str(root / "perfbench-work"),
               "--span-dir", str(root / "perfbench-spans")]
    return subprocess.run(command, cwd=REPO).returncode


if __name__ == "__main__":
    sys.exit(main())
