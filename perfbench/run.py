#!/usr/bin/env python3
"""Build and run the simulator benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload batch-exact --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
simulator libraries and the `simbench` program into `.bench_build/`
(Release); later runs only re-check the build. `--workload all` runs
every workload in turn. The last line of standard output is the
benchmark's JSON result; the exit code is non-zero when the build
fails, a run fails, or any simulated output is wrong.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["batch-exact", "serving-exact", "campaign-fast"]
RUN_TIMEOUT_S = 170


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return False


def build():
    """Configure once, then build the benchmark program; its path or None."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], 300):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", BUILD_DIR, "--target", "simbench",
                      "-j", jobs], 840):
        return None
    return os.path.join(BUILD_DIR, "simbench")


def run_workload(binary, workload, args):
    """Run one workload; returns (exit code, parsed result or None)."""
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--golden-dir", os.path.join(ROOT, "tests", "golden"),
           "--work-dir", work_dir]
    # A session of its own, so a timeout or a signal to this script stops
    # the sweep workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
        lines = lines[:-1]
    except (ValueError, IndexError):
        pass
    for line in lines:
        print(line)
    if result is None:
        print(f"perfbench: {workload} printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1, None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args)
        if result is not None:
            print(json.dumps(result))
        return code

    # Every workload in turn; the combined result prefixes each metric
    # with its workload.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        code, result = run_workload(binary, workload, args)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
