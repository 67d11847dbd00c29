#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark program (perfbench/pb.exe)
and the `campaign` CLI from source with dune, then runs the program, which
prints a human-readable summary and, as its last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. The end-to-end metrics come
with --trace 0, the per-layer metrics of a traced run with --trace 1.

Exits non-zero, without a result line, when the build fails; exits non-zero
after the result line when an output check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
PROGRAM = os.path.join("_build", "default", "perfbench", "pb.exe")
TARGETS = ["./perfbench/pb.exe", "./bin/campaign_cli.exe"]
WORKLOADS = ["diff_grid", "serve_mix"]


def build():
    dune = shutil.which("dune")
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return False
    # the shared dune cache would write outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=850,
        env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("perfbench: run from the repository root\n")
        return 2
    if not build():
        return 2
    cmd = [
        PROGRAM,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # own process group: on a timeout the program and any daemon or worker
    # it started are killed together
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=175)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: benchmark program timed out\n")
        return 4
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    # the program's last line is the result; re-emit it as canonical JSON
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write("perfbench: no result line\n")
        return proc.returncode or 3
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
