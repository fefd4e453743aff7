#!/usr/bin/env python3
"""Build and run the fpva benchmark from the root of a source tree.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/bench.exe and the fpva CLI with dune, runs
one workload, and passes the result through: the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every correctness check passed.

--self-test runs every workload at tiny scale, untraced and traced, and
checks that every metric listed in BENCHMARK.json is printed, finite and
has a unit.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI_EXE = os.path.join("_build", "default", "bin", "fpva_cli.exe")
RUN_TIMEOUT = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the bench and the CLI from source; False when that fails."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        log("perfbench: no dune-project at the root: not a source tree")
        return False
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/bench.exe", "./bin/fpva_cli.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: build failed: {e}")
        return False
    return done.returncode == 0


def machine_args():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return ["--nproc", str(nproc), "--commit", commit]


def run_bench(args, capture=False):
    """Run bench.exe in its own process group; kill the group on timeout."""
    cmd = [BENCH_EXE, *args, "--cli", CLI_EXE, *machine_args()]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: run timed out")
        return 1, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out.decode() if capture else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }
    problems = []
    for w in spec["workloads"]:
        for trace in ("0", "1"):
            what = f"{w['name']} --trace {trace}"
            code, out = run_bench(["--workload", w["name"], "--seed", "1",
                                   "--seconds", "1", "--trace", trace,
                                   "--tiny"], capture=True)
            lines = (out or "").strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{what}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{what}: result keys {sorted(result)}")
            if not result.get("correct"):
                problems.append(f"{what}: not correct")
            got = result.get("metrics", {})
            for name in wanted[trace]:
                m = got.get(name)
                if m is None:
                    problems.append(f"{what}: {name} missing")
                elif not isinstance(m.get("value"), (int, float)) \
                        or not math.isfinite(m["value"]):
                    problems.append(f"{what}: {name} not finite")
                elif not m.get("unit"):
                    problems.append(f"{what}: {name} has no unit")
            extra = sorted(set(got) - set(wanted[trace]))
            if extra:
                problems.append(f"{what}: unlisted metrics {extra}")
            log(f"self-test: {what}: {len(got)} metrics")
    for p in problems:
        log(f"self-test: {p}")
    log("self-test: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not build():
        return 2
    if a.self_test:
        return self_test()
    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    code, _ = run_bench(["--workload", a.workload, "--seed", str(a.seed),
                         "--seconds", str(a.seconds), "--trace", a.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
