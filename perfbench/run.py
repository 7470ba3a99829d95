#!/usr/bin/env python3
"""Builds and runs the CTFL end-to-end benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload fed-score --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Each run configures (first time only) and builds the Release benchmark
program under .bench_build/, runs one workload in one process, and prints
the program's report. The last stdout line is the result JSON with exactly
the keys correct, attempted, failed and metrics. The exit code is 0 only
when the run finished and every correctness gate held.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = Path(".bench_build") / "cmake"
WORK_DIR = Path(".bench_build") / "run"
PROGRAM = "ctfl_perfbench"
BUILD_TIMEOUT_S = 850
# The program's own limit, counted after the build: a run that only checks
# an up-to-date build ends well inside 180 s, and the first run, which
# compiles, has the build's time on top.
PROGRAM_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_step(command):
    """Runs one build command; its output is shown only when it fails."""
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True,
                          timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"build step failed: {' '.join(command)}")


def build():
    """Configures (once, Release) and builds the benchmark program."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("CTFL sources (src/) not found next to perfbench/")
    cache = ROOT / BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file() or "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read_text():
        build_step(["cmake", "-S", str(HERE), "-B", str(ROOT / BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_step(["cmake", "--build", str(ROOT / BUILD_DIR), "--target",
                PROGRAM, "-j", jobs])
    return ROOT / BUILD_DIR / PROGRAM


def revision():
    """Git revision when the checkout has one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def validate_result(line, expected_names):
    """Returns the parsed result line, or raises ValueError naming the flaw."""
    result = json.loads(line)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"result keys must be exactly {sorted(RESULT_KEYS)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} must be a whole number")
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be an object")
    for name, entry in metrics.items():
        if (not isinstance(entry, dict) or set(entry) != {"value", "unit"}
                or not isinstance(entry["value"], (int, float))
                or isinstance(entry["value"], bool)):
            raise ValueError(f"metric {name} must be {{value, unit}}")
    if expected_names is not None and sorted(metrics) != sorted(expected_names):
        missing = sorted(set(expected_names) - set(metrics))
        extra = sorted(set(metrics) - set(expected_names))
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")
    return result


def run(args):
    program = build()
    command = [str(program), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--work-dir", str(WORK_DIR), "--revision",
               revision()]
    # subprocess.run kills and reaps the program if it overruns.
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=PROGRAM_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n") if proc.stdout else []
    if not lines:
        log(f"{PROGRAM} printed nothing (exit {proc.returncode})")
        return 1
    try:
        validate_result(lines[-1], declared_metrics(args.trace == 1))
    except ValueError as err:
        print("\n".join(lines[:-1]))
        log(f"malformed result line: {err}")
        return 1
    print("\n".join(lines), flush=True)
    return proc.returncode


def self_test():
    failures = 0

    def expect_rejected(line, names, why):
        nonlocal failures
        try:
            validate_result(line, names)
        except ValueError:
            return
        failures += 1
        log(f"self-test FAILED: accepted {why}")

    good = ('{"correct": true, "attempted": 3, "failed": 0, "metrics": '
            '{"latency_ms": {"value": 1.5, "unit": "ms"}}}')
    validate_result(good, ["latency_ms"])
    expect_rejected(good, ["latency_ms", "setup_s"], "a missing metric")
    expect_rejected(good.replace('"failed": 0, ', ''), None, "a missing key")
    expect_rejected(good.replace('"attempted": 3', '"attempted": 0'), None,
                    "zero attempts")
    expect_rejected(good.replace('"attempted": 3', '"attempted": 3.5'), None,
                    "a fractional count")
    expect_rejected(good.replace('1.5', '"1.5"'), None, "a string value")
    expect_rejected(good.replace('}}}', '}}, "extra": 1}'), None,
                    "an extra key")
    program = build()
    proc = subprocess.run([str(program), "--self-test"], cwd=ROOT)
    if proc.returncode != 0:
        failures += 1
    print(f"run.py self-test: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.self_test:
            return self_test()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or not 1 <= args.seconds <= 600:
            parser.error("--seed must be >= 0 and --seconds within 1..600")
        return run(args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as err:
        log(f"failed: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
