#!/usr/bin/env python3
"""Build Mira from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  The first run builds `mira` and
the OCaml driver `perfbench/perfbench.exe` with dune into `.bench_build/`
(later runs find them built).  The driver runs the workload, checks its
outputs, writes an envelope to `.bench_build/perfbench/` and prints one
JSON object as its last line; this script relays that output.

`--smoke` runs every workload with `--seconds 1` (100 ops, the floor)
and the usual three set-ups, untraced and traced, and
asserts that each run is correct, has no failed op and prints exactly
the metrics `BENCHMARK.json` declares.

The build uses every CPU; the measured runs are pinned to one.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# relative to ROOT, the driver's working directory: it keeps the
# daemon's Unix socket path short whatever the checkout's path
OUT = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD, "default", "perfbench", "perfbench.exe")
MIRA = os.path.join(BUILD, "default", "bin", "mira.exe")
WORKLOADS = ["analyze_cold", "eval_grid", "batch_edit", "serve_sweep"]
# every file the build needs that lives outside perfbench/
SOURCES = ["dune-project", "bin/mira.ml", "lib/core/batch.ml", "lib/corpus/corpus.ml"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a Mira source tree, missing " + ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "./perfbench/perfbench.exe", "./bin/mira.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.decode().strip() or "unknown"


def pin_one_cpu():
    """Run the driver, and the daemon it starts, on one CPU.  On a small
    shared host, a client and a daemon spread over two vCPUs wait on
    each other's wake-ups and on the hypervisor: unpinned serve_sweep
    runs measured 21% steal time and op_p50 spreads of 30-40% across
    runs, pinned ones 1-3% steal and a 2% spread."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def run_driver(args, timeout):
    """Run the driver in its own process group; every process it
    started (the daemon of serve_sweep) is gone when this returns."""
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [EXE, "--mira", MIRA, "--out", OUT, "--git-rev", git_rev()] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        fail("driver timed out after %d s" % timeout)
    lines = out.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        fail("driver exited with code %d" % proc.returncode)
    return lines


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            lines = run_driver(["--workload", w, "--seed", "7", "--seconds", "1",
                                "--trace", str(trace)], timeout=170)
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            problems = []
            if not res["correct"]:
                problems.append("incorrect output")
            if res["failed"] != 0:
                problems.append("fail_ratio %d/%d" % (res["failed"], res["attempted"]))
            if got != declared[trace]:
                problems.append("metrics differ from BENCHMARK.json")
            print("%-12s trace=%d %s" % (w, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    pin_one_cpu()
    if a.smoke:
        smoke()
    if a.workload is None:
        fail("--workload is required")
    lines = run_driver(["--workload", a.workload, "--seed", str(a.seed),
                        "--seconds", str(a.seconds), "--trace", str(a.trace)],
                       timeout=170)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
