#!/usr/bin/env python3
"""Builds and runs the skycube benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload
    python3 perfbench/run.py --self-test                 # its own unit tests

The first run configures and builds the repository's library, skycube_serve,
skycube_router and the load generator into .bench_build (RelWithDebInfo);
later runs rebuild incrementally. The last stdout line is one JSON result;
the exit status is non-zero when a check failed or the benchmark could not
run.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("build", "read", "ingest", "routed")
TARGETS = ("skycube_perfbench", "skycube_serve", "skycube_router_bin")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, targets):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        fail("run from the repository root: the skycube sources are missing")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"),
                     "-B", build_dir]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    command = ["cmake", "--build", build_dir, "-j4", "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    if args.self_test:
        build(root, build_dir, ("perfbench_test",))
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_test")]).returncode

    build(root, build_dir, TARGETS)
    tools = os.path.join(build_dir, "skycube", "tools")
    status = 0
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        command = [
            os.path.join(build_dir, "skycube_perfbench"),
            "--workload=" + workload,
            "--seed=%d" % args.seed,
            "--seconds=%s" % args.seconds,
            "--trace=%d" % args.trace,
            "--serve=" + os.path.join(tools, "skycube_serve"),
            "--router=" + os.path.join(tools, "skycube_router"),
            "--work-dir=" + os.path.join(build_dir, "work"),
        ]
        sys.stdout.flush()
        status = subprocess.run(command).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
