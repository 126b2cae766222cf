#!/usr/bin/env python3
"""Builds and runs the yver benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        [--check-seed M]
    python3 perfbench/run.py --compare BEFORE.json AFTER.json

Run from the root of a checkout. The first call configures and builds the
benchmark package (the yver library from src/ plus the driver) under
$CARGO_TARGET_DIR, default .bench_build; later calls reuse the build. The
last line of stdout is the run's JSON result.

--check-seed M runs the workload a second time on seed M, so that a claim
can be checked on a seed that was not used while the change was written;
the run counts as correct only if both are.

--compare reads two result files written under .bench_build/work/results
and prints each metric's ratio. It refuses results whose provenance
differs (core count, build type, filesystem, run length, workload):
numbers from a 1-core host are never compared with 4-core ones.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
COMPARABLE = ("workload", "nproc", "threads", "build_type", "wal_fs", "seconds", "trace")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(out):
    if not (ROOT / "src" / "core" / "pipeline.h").is_file():
        log(f"no yver sources under {ROOT / 'src'}; run from a full checkout")
        return None
    cmake_dir = out / "perfbench"
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(cmake_dir), "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed")
            return None
    binary = cmake_dir / "yver_perfbench"
    return binary if binary.is_file() else None


def run_once(binary, args, seed, work_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} seed {seed} failed (exit {proc.returncode})")
        return None, None
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and set(result["metrics"]) != declared:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ declared)}")
        return None, None
    return lines[:-1], result


def declared_metrics(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in json.loads(spec.read_text())[section]}


def compare(before_path, after_path):
    before = json.loads(pathlib.Path(before_path).read_text())
    after = json.loads(pathlib.Path(after_path).read_text())
    for key in COMPARABLE:
        if before["provenance"].get(key) != after["provenance"].get(key):
            log(f"refusing to compare: {key} differs "
                f"({before['provenance'].get(key)} vs {after['provenance'].get(key)})")
            return 2
    for name, metric in after["result"]["metrics"].items():
        old = before["result"]["metrics"].get(name)
        if old is None:
            continue
        ratio = metric["value"] / old["value"] if old["value"] else float("nan")
        print(f"{name:32s} {old['value']:14.6g} -> {metric['value']:14.6g} "
              f"{metric['unit']:6s} x{ratio:.4f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-seed", type=int)
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    work_dir = out / "work"
    extra, result = run_once(binary, args, args.seed, work_dir)
    if result is None:
        return 1
    if args.check_seed is not None:
        check_extra, check = run_once(binary, args, args.check_seed, work_dir)
        if check is None:
            return 1
        for line in check_extra:
            print(line)
        print(json.dumps({"check_seed": args.check_seed, "result": check}))
        result["correct"] = result["correct"] and check["correct"]
    for line in extra:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
