#!/usr/bin/env python3
"""End-to-end serving benchmark for authidx (see perfbench/README.md).

    python3 perfbench/run.py --workload read_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds authidx_server and the load generator from this checkout's
sources into .bench_build/ (incrementally), then runs one measurement.
Build output goes to stderr; standard output carries the report lines
("# ...") and, last, one JSON result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("read_mix", "repeat_cached", "ingest_read")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target"] + targets, stdout=sys.stderr, check=True)


def source_digest():
    """SHA-256 over the sources the benchmark builds, path and content."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), BENCH_DIR,
            os.path.join(ROOT, "examples", "authidx_server.cc")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, _, names in os.walk(top):
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown", None
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=True)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        return "unknown", None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    for needed in ("src/CMakeLists.txt", "examples/authidx_server.cc"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full authidx checkout" % needed)

    try:
        if args.self_test:
            build(["perfbench_lib_test"])
            return subprocess.run(
                [os.path.join(BUILD_DIR, "perfbench_lib_test")]).returncode
        build(["authidx_server", "perfbench_loadgen"])
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    sha, dirty = git_state()
    provenance = {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "machine": platform.machine(),
    }
    workdir = os.path.join(BUILD_DIR, "work-%d" % os.getpid())
    command = [os.path.join(BUILD_DIR, "perfbench_loadgen"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", os.path.join(BUILD_DIR, "authidx_server"),
               "--workdir", workdir,
               "--provenance", json.dumps(provenance, sort_keys=True)]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the servers it spawned.
    loadgen = subprocess.Popen(command, process_group=0)
    try:
        return loadgen.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(loadgen.pid, signal.SIGKILL)
        loadgen.wait()
        fail("load generator exceeded 170 s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
