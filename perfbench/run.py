#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:

    python3 perfbench/run.py --workload cold-k13 --seed 1 --seconds 20 --trace 0

builds perfbench/bench.exe from the checkout's sources (dune, build
directory .bench_build) and prints the result JSON as the last line of
stdout. An end-to-end run (--trace 0) starts PROCS bench.exe processes
one after another, each measuring seconds / PROCS after its own cold
set-up, and reports per metric the median over the processes, with
each process's peak resident set size added from wait4; a traced run
(--trace 1) is one process. The exit code is 0 only when every process
finished, its output checks passed and all processes computed the same
result bytes.

Check mutation test (every output check fed a perturbed result):

    python3 perfbench/run.py --check-selftest

Steadiness self-check:

    python3 perfbench/run.py --self-check 10 [--workload NAME ...] [--seed-base 1]

runs each workload N times with seeds seed-base .. seed-base+N-1 and
prints, per end-to-end metric, the median, the quartiles and their
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
Run it from the root of the checkout.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_DIR = ".perfbench_run"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# processes per end-to-end run: set-up is measured cold in each, and a
# process-wide effect (heap layout, a cache filled early) is one of three
PROCS = 3
# workloads run on one CPU: the serve fleet is one OCaml domain whose
# threads hand each request on several times; unpinned, each hand-off
# may wake a thread on the other vCPU, and on a virtual machine that
# wake-up costs whatever the host's scheduling makes it (README
# "Steadiness")
PINNED = {"routed-serve-mix"}


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile("dune-project"):
        die("no dune-project here: run from the root of a checkout")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if proc.returncode != 0 or not os.path.isfile(EXE):
        die(f"build failed (exit {proc.returncode})")


def wait_with_timeout(proc, timeout_s):
    """wait4 the child, killing its process group past the deadline;
    returns (exit status, rusage) or None on timeout."""
    deadline = time.monotonic() + timeout_s
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            return status, rusage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            return None
        time.sleep(0.02)


def run_proc(workload, seed, seconds, trace, timeout_s):
    """Run one bench.exe process; returns its parsed result or None."""
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out_path = os.path.join(BUILD_DIR, "bench-stdout.txt")
    cpu = max(os.sched_getaffinity(0))
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if workload in PINNED else None
    with open(out_path, "w+b") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=sys.stderr,
                                start_new_session=True, preexec_fn=pin)
        waited = wait_with_timeout(proc, timeout_s)
        proc.returncode = 0  # reaped by wait4 above
        out.seek(0)
        lines = out.read().decode("utf-8", "replace").strip().splitlines()
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    if waited is None:
        print(f"run.py: {workload} timed out after {timeout_s:.0f} s", file=sys.stderr)
        return None
    status, rusage = waited
    if not os.WIFEXITED(status) or os.WEXITSTATUS(status) != 0 or not lines:
        print(f"run.py: bench.exe failed (status {status})", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if trace == 0:
        # ru_maxrss is in KiB on Linux
        result["metrics"]["peak_rss_mb"] = {
            "value": rusage.ru_maxrss / 1024.0, "unit": "MB"}
    return result


def run_once(workload, seed, seconds, trace):
    """One run: a traced process, or PROCS end-to-end processes merged
    into one result; None if any process failed."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace == 1:
        return run_proc(workload, seed, seconds, trace, RUN_TIMEOUT_S)
    procs = []
    for i in range(PROCS):
        r = run_proc(workload, seed, seconds / PROCS, trace,
                     deadline - time.monotonic())
        if r is None:
            return None
        print(f"run.py: {workload} seed {seed} process {i + 1}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
            file=sys.stderr)
        procs.append(r)
    return merge(workload, procs)


def merge(workload, procs):
    """The run's result: per metric the median over the processes."""
    # the result bytes (hybrid payload digest) and the design answer must
    # not depend on the process
    same = all(p.get("digest") == procs[0].get("digest")
               and p["metrics"]["p_opt_mw"]["value"]
               == procs[0]["metrics"]["p_opt_mw"]["value"] for p in procs)
    if not same:
        print(f"run.py: {workload}: processes computed different results",
              file=sys.stderr)
    return {
        "correct": same and all(p["correct"] for p in procs),
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "metrics": {
            name: {"value": statistics.median(p["metrics"][name]["value"] for p in procs),
                   "unit": m["unit"]}
            for name, m in procs[0]["metrics"].items()},
    }


def self_check(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for i in range(args.self_check):
            seed = args.seed_base + i
            r = run_once(w, seed, seconds, 0)
            if r is None or not r["correct"]:
                print(f"{w} seed {seed}: run failed or incorrect")
                ok = False
                continue
            shares.add((r["failed"], r["attempted"]) if r["failed"] else 0)
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            print(f"  seed {seed}: " + " ".join(
                f"{name}={r['metrics'][name]['value']:.6g}" for name in bounds), flush=True)
        print(f"\n{w}: {args.self_check} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.self_check - 1}, failed shares {sorted(map(str, shares))}")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 else (
                "  > bound/3" if spread <= bounds[name] else "  > BOUND")
            if spread > bounds[name]:
                ok = False
            print(f"  {name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bounds[name]:>6}{flag}")
    return 0 if ok else 1


def check_selftest():
    """bench.exe's own check mutation test, then the cross-process
    identity check of merge fed a perturbed process."""
    ok = subprocess.run([EXE, "--check-selftest"]).returncode == 0
    base = {"correct": True, "attempted": 1, "failed": 0, "digest": "d0",
            "metrics": {"p_opt_mw": {"value": 65.0, "unit": "mW"}}}

    def perturbed(field, value):
        p = json.loads(json.dumps(base))
        if field == "digest":
            p["digest"] = value
        else:
            p["metrics"]["p_opt_mw"]["value"] = value
        return p

    cases = [("process result bytes differ", perturbed("digest", "d1")),
             ("process design answer differs", perturbed("p_opt_mw", 65.0 * (1 + 1e-12)))]
    if not merge("selftest", [base, base, base])["correct"]:
        print("the unperturbed processes fail the identity check")
        ok = False
    for name, bad in cases:
        caught = not merge("selftest", [base, bad, base])["correct"]
        ok = ok and caught
        print(f"{name:<50} {'caught' if caught else 'MISSED'}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-check", type=int, metavar="N")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--check-selftest", action="store_true")
    args = p.parse_args()
    build()
    if args.check_selftest:
        sys.exit(check_selftest())
    if args.self_check:
        sys.exit(self_check(args))
    if not args.workload or len(args.workload) != 1 or args.seconds is None:
        die("one --workload and --seconds are required")
    result = run_once(args.workload[0], args.seed, args.seconds, args.trace)
    if result is None:
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
