#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload sim-read --seed 1 --seconds 10 --trace 0

The benchmark is the OCaml program perfbench/main.ml; this script builds
it with dune inside the checkout, runs it in its own process group (so
the serve workload's daemon never outlives it), checks that the metric
names of its result are exactly those BENCHMARK.json declares, and
passes its output through.  The last line of output is the result JSON.
Exits non-zero without printing a result if anything fails.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found on PATH")


def build(env):
    cmd = dune_command() + ["build", "--root", ".", "./perfbench/main.exe"]
    # dune's messages go to stderr: stdout carries only the result
    r = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed", r.returncode)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace == "1" else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def pin_to_one_cpu():
    """Run the benchmark on one CPU.  Every workload does its work on one
    thread at a time (serve's client and daemon take turns), and a
    round trip between processes on two CPUs pays a cross-CPU wake-up
    whose cost varies with the host: it doubled the median serve round
    trip and made it vary twice as much."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args, env):
    pin_to_one_cpu()
    proc = subprocess.Popen(
        [EXE] + args, stdout=subprocess.PIPE, env=env, text=True,
        start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        fail("timed out after %d s" % TIMEOUT_S)
    finally:
        reap_group(proc.pid)
    return proc.returncode, out


def reap_group(pgid):
    """Kill what is left of the benchmark's process group (the serve
    daemon, if the benchmark died before stopping it) and wait for it."""
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run me from the root of the repository (no dune-project or lib/ here)")
    args = sys.argv[1:]
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else None
    if trace not in ("0", "1"):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    code, out = run(args, env)
    if code != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % code, code if code > 0 else 1)
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))), 3)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
