#!/usr/bin/env python3
"""Serving benchmark of optsample: builds the optsample binary and the load
generator from source, then runs one workload against real server processes.

    python3 perfbench/run.py --workload ingest|query|cluster --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0 \
        --repeat 10          # N, N+1, ... N+9: medians and quartiles

Run from the root of the source tree. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
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

WORKLOADS = ("ingest", "query", "cluster")
SCRATCH = ".perfbench"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_tree():
    needed = ["dune-project", "bin/optsample.ml", "lib/server/daemon.ml",
              "perfbench/dune", "perfbench/perfgen.ml"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        die("run from the root of the optsample source tree (missing: "
            + ", ".join(missing) + ")")
    if shutil.which("dune") is None:
        die("dune not found on PATH")


def mtimes(paths):
    return [os.stat(p).st_mtime_ns if os.path.exists(p) else None for p in paths]


def build():
    targets = ["./bin/optsample.exe", "./perfbench/perfgen.exe"]
    exe = [os.path.join("_build", "default", t[2:]) for t in targets]
    before = mtimes(exe)
    try:
        proc = subprocess.run(["dune", "build", "--root", "."] + targets,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")
    for e in exe:
        if not os.path.isfile(e):
            die(f"build produced no {e}")
    if mtimes(exe) != before:
        # Freshly linked binaries run slowly until they are paged in:
        # load both once before anything is timed.
        for e in exe:
            subprocess.run([e, "--help"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=60)
        time.sleep(2)
    return [os.path.abspath(e) for e in exe]


def run_once(binary, gen, workload, seed, seconds, trace):
    """One generator run in a fresh scratch directory; returns its stdout."""
    os.makedirs(SCRATCH, exist_ok=True)
    rundir = os.path.join(SCRATCH, f"run-{os.getpid()}-{seed}-{time.time_ns()}")
    os.makedirs(rundir)
    cmd = [gen, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin", binary, "--dir", rundir]
    # Its own session, so a timeout can stop the servers it started too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(rundir, ignore_errors=True)
        die(f"{workload} run timed out")
    # Whatever the generator left running (it reaps its servers itself).
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    shutil.rmtree(rundir, ignore_errors=True)
    text = out.decode(errors="replace")
    if proc.returncode != 0:
        sys.stdout.write(text)
        die(f"{workload} generator exited with {proc.returncode}")
    return text


def repeat(binary, gen, args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        text = run_once(binary, gen, args.workload, seed, args.seconds, args.trace)
        lines = text.strip().splitlines()
        res = json.loads(lines[-1])
        results.append(res)
        print(lines[0])
        share = res["failed"] / res["attempted"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} (share {share:.6f}) "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    summary = {}
    print(f"{args.workload}: {args.repeat} runs of {args.seconds} s")
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": m["unit"]}
        print(f"  {name:28s} median {med:14.6g} {m['unit']:10s} "
              f"q1 {q1:12.6g} q3 {q3:12.6g} spread {100 * spread:6.2f}%")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  failed shares: {shares}; all correct: {all(r['correct'] for r in results)}")
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "correct": all(r["correct"] for r in results),
                      "failed_shares": shares, "metrics": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run N times on consecutive seeds and print quartiles")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    check_tree()
    binary, gen = build()
    if args.repeat > 0:
        repeat(binary, gen, args)
    else:
        sys.stdout.write(run_once(binary, gen, args.workload, args.seed,
                                  args.seconds, args.trace))


if __name__ == "__main__":
    main()
