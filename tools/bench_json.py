#!/usr/bin/env python3
"""Run the benchmark suite and merge results into one JSON artifact.

Runs every `bench_*` binary under the build directory with
`--benchmark_format=json` and merges the outputs into a single file,
`BENCH_<date>.json` at the repo root by default. The merged document
keeps one machine `context` (they are identical across binaries on one
host), a `provenance` block naming the commit, build and host that
produced the numbers, and groups the per-benchmark entries by binary:

    {
      "date": "2026-08-06",
      "provenance": {"git_sha": ..., "git_dirty": ..., "build_type": ...,
                     "compiler": ..., "nproc": ...},
      "context": { ...google-benchmark context of the first binary... },
      "benchmarks": {
        "bench_coding": [ {"name": ..., "real_time": ...}, ... ],
        ...
      }
    }

With `--diff BASELINE.json`, the freshly merged results are also
compared against a previous artifact: every benchmark present in both
files is matched by (binary, name) and its real_time delta reported
when it moved more than `--diff-threshold` percent (default 10) in
either direction. Every baseline row of a binary that ran (and that
`--benchmark-filter`, if given, selects) but that the run did not
produce is listed too: a renamed or deleted benchmark, or a baseline
older than the code, shows up instead of silently dropping out of the
comparison. The diff is a report, not a gate — timing noise on shared
CI runners would make a hard threshold flaky — so it never changes the
exit status.

Usage:
    python3 tools/bench_json.py                      # full suite
    python3 tools/bench_json.py --only bench_coding,bench_collation
    python3 tools/bench_json.py --benchmark-filter 'Varint' --out /tmp/b.json
    python3 tools/bench_json.py --diff BENCH_2026-10-19.json

Exit status: 0 when every selected binary ran and parsed, 1 otherwise
(partial results are still written so a long run is never wasted).
"""

import argparse
import datetime
import json
import os
import re
import subprocess
import sys
from pathlib import Path


def find_bench_binaries(build_dir: Path):
    bench_dir = build_dir / "bench"
    if not bench_dir.is_dir():
        return []
    binaries = []
    for path in sorted(bench_dir.iterdir()):
        if path.name.startswith("bench_") and path.is_file():
            # Skip CMake build byproducts; binaries have the exec bit.
            if path.stat().st_mode & 0o111:
                binaries.append(path)
    return binaries


def read_cmake_cache(build_dir: Path):
    """KEY -> value for every `KEY:TYPE=value` line of CMakeCache.txt."""
    cache = {}
    try:
        lines = (build_dir / "CMakeCache.txt").read_text().splitlines()
    except OSError:
        return cache
    for line in lines:
        if line.startswith(("#", "//")) or "=" not in line:
            continue
        key_type, value = line.split("=", 1)
        cache[key_type.split(":", 1)[0]] = value
    return cache


def command_output(cmd):
    """First line of `cmd`'s stdout; None when it fails or prints nothing."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else None


def provenance(root: Path, build_dir: Path):
    """Which commit, build and host produced the numbers."""
    cache = read_cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER")
    sha = command_output(["git", "-C", str(root), "rev-parse", "HEAD"])
    # First line of the tracked changes; None when there are none.
    first_change = command_output(["git", "-C", str(root), "status",
                                   "--porcelain", "--untracked-files=no"])
    return {
        "git_sha": sha or "unknown",
        "git_dirty": None if sha is None else first_change is not None,
        "build_type": cache.get("CMAKE_BUILD_TYPE") or "unknown",
        "compiler": (command_output([compiler, "--version"])
                     if compiler else None) or "unknown",
        "nproc": os.cpu_count(),
    }


def run_one(binary: Path, benchmark_filter: str, timeout_s: int):
    cmd = [str(binary), "--benchmark_format=json"]
    if benchmark_filter:
        cmd.append(f"--benchmark_filter={benchmark_filter}")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout_s
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{binary.name} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout)


def diff_against_baseline(merged, baseline_path: Path, threshold_pct: float,
                          benchmark_filter=None):
    """Prints real_time deltas beyond the threshold, then the baseline
    rows of the binaries that ran which the run did not produce.
    Report-only."""
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"diff: cannot read baseline {baseline_path}: {err}",
              file=sys.stderr)
        return
    base_times = {}
    for binary, entries in baseline.get("benchmarks", {}).items():
        for entry in entries:
            if "real_time" in entry and "name" in entry:
                base_times[(binary, entry["name"])] = entry["real_time"]

    moved = []
    compared = 0
    for binary, entries in merged["benchmarks"].items():
        for entry in entries:
            key = (binary, entry.get("name"))
            base = base_times.get(key)
            now = entry.get("real_time")
            if base is None or now is None or base <= 0:
                continue
            compared += 1
            delta_pct = (now - base) / base * 100.0
            if abs(delta_pct) > threshold_pct:
                moved.append((delta_pct, binary, entry["name"], base, now,
                              entry.get("time_unit", "ns")))

    date = baseline.get("date", "?")
    print(f"diff vs {baseline_path.name} (baseline date {date}): "
          f"{compared} comparable benchmarks, {len(moved)} moved more than "
          f"{threshold_pct:g}%")
    for delta_pct, binary, name, base, now, unit in sorted(moved,
                                                         reverse=True):
        direction = "slower" if delta_pct > 0 else "faster"
        print(f"  {binary}/{name}: {base:.4g} -> {now:.4g} {unit} "
              f"({abs(delta_pct):.1f}% {direction})")

    produced = {(binary, entry.get("name"))
                for binary, entries in merged["benchmarks"].items()
                for entry in entries}
    selected = re.compile(benchmark_filter or "")
    missing = sorted(key for key in base_times
                     if key[0] in merged["benchmarks"]
                     and key not in produced and selected.search(key[1]))
    print(f"{len(missing)} baseline benchmarks of the binaries run were "
          f"not produced")
    for binary, name in missing:
        print(f"  {binary}/{name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--build-dir",
        default="build",
        help="CMake build directory holding bench/ (default: build)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="Output path (default: BENCH_<date>.json at the repo root)",
    )
    parser.add_argument(
        "--only",
        default=None,
        help="Comma-separated binary names to run (default: all bench_*)",
    )
    parser.add_argument(
        "--benchmark-filter",
        default=None,
        help="Regex forwarded to every binary as --benchmark_filter",
    )
    parser.add_argument(
        "--timeout",
        type=int,
        default=1800,
        help="Per-binary timeout in seconds (default: 1800)",
    )
    parser.add_argument(
        "--diff",
        default=None,
        metavar="BASELINE",
        help="Previous merged artifact to compare real_time against "
             "(report-only, never affects the exit status)",
    )
    parser.add_argument(
        "--diff-threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="Report benchmarks whose real_time moved more than PCT "
             "percent vs the --diff baseline (default: 10)",
    )
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(args.build_dir)
    if not build_dir.is_absolute():
        build_dir = root / build_dir

    binaries = find_bench_binaries(build_dir)
    if args.only:
        wanted = {name.strip() for name in args.only.split(",")}
        binaries = [b for b in binaries if b.name in wanted]
        missing = wanted - {b.name for b in binaries}
        if missing:
            print(f"error: no such bench binaries: {sorted(missing)}",
                  file=sys.stderr)
            return 1
    if not binaries:
        print(f"error: no bench_* binaries under {build_dir}/bench "
              "(build the repo first)", file=sys.stderr)
        return 1

    date = datetime.date.today().isoformat()
    out_path = Path(args.out) if args.out else root / f"BENCH_{date}.json"

    merged = {"date": date, "provenance": provenance(root, build_dir),
              "context": None, "benchmarks": {}}
    failures = []
    for binary in binaries:
        print(f"running {binary.name} ...", flush=True)
        try:
            doc = run_one(binary, args.benchmark_filter, args.timeout)
        except (RuntimeError, subprocess.TimeoutExpired,
                json.JSONDecodeError) as err:
            print(f"  FAILED: {err}", file=sys.stderr)
            failures.append(binary.name)
            continue
        if merged["context"] is None:
            merged["context"] = doc.get("context")
        merged["benchmarks"][binary.name] = doc.get("benchmarks", [])
        print(f"  {len(merged['benchmarks'][binary.name])} benchmarks")

    out_path.write_text(json.dumps(merged, indent=1) + "\n")
    total = sum(len(v) for v in merged["benchmarks"].values())
    print(f"wrote {out_path} ({total} benchmarks from "
          f"{len(merged['benchmarks'])} binaries)")
    if args.diff:
        diff_against_baseline(merged, Path(args.diff), args.diff_threshold,
                              args.benchmark_filter)
    if failures:
        print(f"error: {len(failures)} binaries failed: {failures}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
