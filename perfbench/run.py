#!/usr/bin/env python3
"""The CoSMIC stack's benchmark: build, run one workload, print its metrics.

Run from the root of the repository:

    python3 perfbench/run.py --workload narrow-tcp --seed 1 --seconds 10 --trace 0

builds the benchmark binary and the `cosmic-launcher` binary from source
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload in a
process of its own and passes its output through. The last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics; with --trace 1 the per-layer ones, and
the spans of the traced run are written to
$CARGO_TARGET_DIR/perfbench/spans-<workload>-seed<seed>.json. The exit code
is non-zero when a build fails, a run fails or an output check fails.

Repeat mode runs a workload once per seed and prints each metric's median,
quartiles and spread (quartile distance over median) next to its bound from
BENCHMARK.json. With --sets 2 it runs the seeds twice and prints how far the
second set's median moved from the first's (positive is worse). It fails if
any run fails or if two runs of one seed differ in their counts or model
hashes (with one set, the first seed runs twice for that check):

    python3 perfbench/run.py --repeat 10 --sets 2 --workload all --seconds 25
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["narrow-tcp", "wide-sim", "director-recovery", "launcher-proc"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within this many seconds, builds included.
RUN_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the benchmark and the launcher; returns their paths."""
    for needed in ["Cargo.toml", "Cargo.lock", os.path.join("crates", "runtime", "Cargo.toml")]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    common = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"]
    steps = [
        common + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        common + ["--manifest-path", os.path.join(ROOT, "Cargo.toml"),
                  "-p", "cosmic-runtime", "--bin", "cosmic-launcher"],
    ]
    for cmd in steps:
        # Cargo's own output goes to stderr; stdout is the benchmark's.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "cosmic-launcher")


def run_once(bins, workload, seed, seconds, trace, deadline):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    bench, launcher = bins
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--launcher", launcher]
    if trace:
        spans = os.path.join(target_dir(), "perfbench", f"spans-{workload}-seed{seed}.json")
        cmd += ["--spans-out", spans]
    # A process group of its own, so a run that overstays is stopped
    # together with the launcher processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(5.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} seed {seed} did not finish in time")
    return proc.returncode, out


def parse_result(out):
    lines = out.strip().splitlines()
    if not lines:
        return None, None
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), None)
    try:
        return json.loads(lines[-1]), fingerprint
    except json.JSONDecodeError:
        return None, fingerprint


def end_to_end_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def summarize(vals):
    """Median, quartiles and spread (quartile distance over median)."""
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def repeat(bins, args):
    """Runs every seed once per set; prints each set's medians, quartiles
    and spreads, and how far the last set's median moved from the first's."""
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    seeds = [args.seed + i for i in range(args.repeat)]
    spec = end_to_end_spec() if args.trace == 0 else {}
    ok = True
    for w in workloads:
        sets, prints = [], {}
        # With one set, the first seed runs a second time for the
        # cross-run check of counts and model hashes.
        plan = [(i, seed) for i in range(args.sets) for seed in seeds]
        if args.sets == 1:
            plan.append((None, seeds[0]))
        for set_i, seed in plan:
            code, out = run_once(bins, w, seed, args.seconds, args.trace, time.monotonic() + RUN_LIMIT_S)
            result, fingerprint = parse_result(out)
            if code != 0 or result is None or not result.get("correct"):
                print(out, end="")
                print(f"{w} seed {seed}: run failed (exit {code})")
                ok = False
                continue
            if seed in prints and prints[seed] != fingerprint:
                print(f"{w} seed {seed}: counts differ between two runs\n  {prints[seed]}\n  {fingerprint}")
                ok = False
            prints[seed] = fingerprint
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            print(f"{w} seed {seed}: {values}", flush=True)
            if set_i is None:
                continue
            while len(sets) <= set_i:
                sets.append({})
            for name, m in result["metrics"].items():
                sets[set_i].setdefault(name, []).append(m["value"])
        print(f"== {w}: {len(seeds)} seeds from {seeds[0]}, {args.seconds} s each, {len(sets)} set(s)")
        head = f"{'metric':<32}" + "".join(f" {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}" for _ in sets)
        print(head + f" {'moved':>7} {'bound':>6}")
        for name in sets[0] if sets else []:
            row, meds = f"{name:<32}", []
            for values in sets:
                med, q1, q3, spread = summarize(values.get(name, [float("nan")]))
                meds.append(med)
                row += f" {med:>12.6f} {q1:>12.6f} {q3:>12.6f} {spread:>7.4f}"
            m = spec.get(name, {})
            sign = -1 if m.get("better") == "higher" else 1
            moved = sign * (meds[-1] - meds[0]) / meds[0] if meds[0] else float("nan")
            print(row + f" {moved:>7.4f} {m.get('bound', '-'):>6}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run this many seeds, starting at --seed, and print medians and quartiles")
    p.add_argument("--sets", type=int, default=1,
                   help="with --repeat: run the seeds this many times and compare the sets' medians")
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    start = time.monotonic()
    bins = build()
    # The first run in a checkout may spend most of its time building.
    deadline = max(start + RUN_LIMIT_S, time.monotonic() + 120)
    if args.repeat > 0:
        sys.exit(repeat(bins, args))
    if args.workload == "all":
        fail("--workload all needs --repeat")
    code, out = run_once(bins, args.workload, args.seed, args.seconds, args.trace, deadline)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
