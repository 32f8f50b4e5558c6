#!/usr/bin/env python3
"""End-to-end synthesis benchmark: builds the load generator and runs one workload.

    python3 perfbench/run.py --workload batch_corpus|serve_warm|serve_eco \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds
perfbench/ (the xsfq library plus the load generator, Release) into
$CARGO_TARGET_DIR, default .bench_build; later runs only check the build.
Each run works in a fresh directory under the build directory and removes
it afterwards.  The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; everything else goes to
stderr.  --workload all runs the three workloads one after another and
prints one "<workload> <result>" line for each.  --self-test runs every
workload with deliberately corrupted outputs and fails unless each one
reports failed operations.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch_corpus", "serve_warm", "serve_eco")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the load generator gets what is left after
# the build check.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the load generator; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no xsfq sources at {ROOT}")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "--target", "xsfq_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out_dir, "xsfq_perfbench")


def run_workload(binary, out_dir, workload, seed, seconds, trace,
                 corrupt=False):
    """Runs one workload in a fresh directory; returns the parsed result."""
    work = os.path.join(out_dir, f"run-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload} printed a malformed result")
    return result


def check_metrics(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != listed:
        diff = sorted(set(got.items()) ^ set(listed.items()))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {diff}")


def self_test(binary, out_dir):
    """Every workload must count corrupted outputs as failed."""
    ok = True
    for workload in WORKLOADS:
        result = run_workload(binary, out_dir, workload, seed=1, seconds=4,
                              trace=False, corrupt=True)
        fail_ratio = result["failed"] / result["attempted"]
        caught = result["failed"] > 0 and not result["correct"]
        log(f"self-test {workload}: {result['failed']} of "
            f"{result['attempted']} corrupted ops failed "
            f"(fail_ratio {fail_ratio:.4f}) -> "
            f"{'checks fire' if caught else 'CHECKS MISSED CORRUPTION'}")
        ok = ok and caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = build_dir()
    try:
        binary = build(out_dir)
        if args.self_test:
            return 0 if self_test(binary, out_dir) else 1
        for workload in WORKLOADS if args.workload == "all" else (
                args.workload,):
            result = run_workload(binary, out_dir, workload, args.seed,
                                  args.seconds, args.trace == 1)
            check_metrics(result, args.trace == 1)
            prefix = f"{workload} " if args.workload == "all" else ""
            print(prefix + json.dumps(result), flush=True)
    except (RuntimeError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
