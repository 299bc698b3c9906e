#!/usr/bin/env python3
"""Build the benchmark runner from source and measure one workload.

Run from the repository root:

    python3 perfbench/run.py --workload cold-dram --seed 1 --seconds 30 --trace 0

Builds perfbench/main.exe with dune (the first build compiles the whole
tree), then runs `main.exe run` with the same arguments.  The last line
of standard output is the result object; see perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def run_group(argv, timeout, **kw):
    """Run argv in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main(args):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("no dune-project or lib/ here: run from the repository root")
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        return fail("build failed" if code is not None else "build timed out")
    code = run_group([EXE, "run"] + args, RUN_TIMEOUT_S)
    if code is None:
        return fail("run timed out")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
