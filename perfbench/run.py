#!/usr/bin/env python3
"""The served benchmark of bundlemine.

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload solve-mix --seed 3 --seconds 20
    python3 perfbench/run.py --workload market-stream --trace 1

Builds bundlemined and the load driver, perfbench_driver, from this
checkout with CMake (into $CARGO_TARGET_DIR, default .bench_build), then
runs the load driver once per workload. Each run spawns bundlemined
--workers=4 --threads=1 --queue-depth=64, drives 4 closed-loop clients (one
connection each) for --seconds and checks every response. --trace 0 reports the end-to-end
metrics; --trace 1 reports the per-layer metrics of a traced in-process
replay of the same requests. BENCHMARK.json at the repository root lists
the workloads, the metrics and what each layer metric should move.

Every line of the load driver's report is printed; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. Without --workload the
workloads run in turn and a last line combines their results, with metric
names prefixed by the workload. The exit code is 0 only when every run was
correct.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweep-fanout", "solve-mix", "market-stream")
# A run must end within 180 s; this leaves room to stop what it started.
RUN_TIMEOUT_S = 170
TARGETS = ("bundlemined", "perfbench_driver")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    """Configures and builds the daemon and the load driver; incremental."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(source_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *TARGETS],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def stop_group(pgid):
    """Kills what is left of the load driver's process group; waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_driver(driver, daemon, workdir, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    command = [str(driver), f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               f"--daemon={daemon}", f"--workdir={workdir}"]
    # Its own session, so the daemon it forks can be stopped with it.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(process.pid)
        process.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s; stopped",
              file=sys.stderr)
        return 1, []
    stop_group(process.pid)
    return process.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = Path(__file__).resolve().parent
    repo_root = source_dir.parent
    if not (repo_root / "CMakeLists.txt").is_file() or not (repo_root / "src").is_dir():
        fail(f"no bundlemine sources at {repo_root} (CMakeLists.txt, src/)")
    build_dir = Path(os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or repo_root / ".bench_build"))
    build(source_dir, build_dir)
    workdir = build_dir / "run"
    workdir.mkdir(exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        code, lines = run_driver(build_dir / "perfbench_driver",
                                 build_dir / "repo" / "bundlemined", workdir,
                                 workload, args.seed, args.seconds, args.trace)
        result = parse_result(lines)
        if len(workloads) == 1:
            print("\n".join(lines), flush=True)
            return code if result is not None else (code or 1)
        print("\n".join(lines[:-1] if result else lines), flush=True)
        if code != 0 or result is None:
            status = code or 1
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
