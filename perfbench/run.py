#!/usr/bin/env python3
"""Builds icdbd and the perfbench driver from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --repeat K
    python3 perfbench/run.py --workload NAME --seed N --check-counts
    python3 perfbench/run.py --workload all --seed N --seconds S

A single run prints the driver's result JSON as its last line of standard
output. `--workload all` runs every workload once and prints one table of
every metric; it exits non-zero if any run failed a check. `--repeat K` runs seeds N..N+K-1 and prints each metric's median,
quartiles and quartile spread. `--check-counts` runs one pass twice with the
same seed and asserts that every server counter moved by the same amount.
Builds go to $CARGO_TARGET_DIR (default `.bench_build`), run-time files to
`.bench_run`, both in the repository root. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170
WORKLOADS = ("warm_mix", "cold_generate", "explore_sweep")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("Cargo.toml", os.path.join("src", "bin", "icdbd.rs")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no {needed} next to perfbench/: the benchmark builds icdbd from this checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "icdbd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Cargo's own output goes to stderr, so the result stays the last
        # line of stdout.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(target, "release")


def driver(bin_dir, args, seed, extra=()):
    cmd = [
        os.path.join(bin_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--icdbd", os.path.join(bin_dir, "icdbd"),
        "--work-dir", os.path.join(ROOT, ".bench_run"),
        *extra,
    ]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_servers()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)


def stop_servers():
    """Kills any icdbd a killed driver left behind and waits for it to end."""
    run_dir = os.path.join(ROOT, ".bench_run")
    for entry in os.listdir(run_dir) if os.path.isdir(run_dir) else ():
        pid_file = os.path.join(run_dir, entry, "icdbd.pid")
        try:
            with open(pid_file) as f:
                pid = int(f.read())
            os.kill(pid, signal.SIGKILL)
            while os.path.exists(f"/proc/{pid}") and not is_zombie(pid):
                time.sleep(0.01)
        except (OSError, ValueError):
            pass


def is_zombie(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def result_of(proc):
    """The driver's result line, and whether the run passed every check."""
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return result, proc.returncode == 0 and bool(result.get("correct"))


def all_workloads(bin_dir, args):
    results, bad = {}, 0
    for workload in WORKLOADS:
        args.workload = workload
        result, ok = result_of(driver(bin_dir, args, args.seed))
        bad += not ok
        results[workload] = result.get("metrics", {})
    names = {name: m["unit"] for metrics in results.values() for name, m in metrics.items()}
    print(f"{'metric':<32}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for name, unit in names.items():
        cells = (results[w].get(name, {}).get("value", float("nan")) for w in WORKLOADS)
        print(f"{name:<32}" + "".join(f"{v:>16.4f}" for v in cells) + f"  {unit}")
    return 1 if bad else 0


def repeat(bin_dir, args):
    values, units, bad = {}, {}, 0
    for seed in range(args.seed, args.seed + args.repeat):
        proc = driver(bin_dir, args, seed)
        result, ok = result_of(proc)
        bad += not ok
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: exit {proc.returncode}, correct {result.get('correct')}",
              file=sys.stderr)
    print(f"{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{name:<32} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.2%}  {units[name]}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--check-counts", action="store_true")
    args = parser.parse_args()

    bin_dir = build()
    if args.workload == "all":
        return all_workloads(bin_dir, args)
    if args.repeat > 0:
        return repeat(bin_dir, args)
    extra = ["--check-counts"] if args.check_counts else []
    proc = driver(bin_dir, args, args.seed, extra)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
