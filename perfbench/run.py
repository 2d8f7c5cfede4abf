#!/usr/bin/env python3
"""Build and run the cschedd end-to-end benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload warm_mix --seed 1 --seconds 10 --trace 0

Builds the daemon, the CLI and the load generator (perfbench/cbench.ml)
with dune, then runs the load generator, which prints the metrics; its
last stdout line is the JSON result.  Workloads: warm_mix, cold_churn,
bank_restart (see BENCHMARK.json).  Exits non-zero when the sources are
missing, the build fails, or any reply differs from the oracle.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

TARGETS = ["./perfbench/cbench.exe", "./bin/cschedd.exe", "./bin/csched.exe"]
BUILD = "_build/default"
RUN_TIMEOUT_S = 170


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    sources = ["dune-project", "lib/service/server.ml", "bin/cschedd.ml", "perfbench/dune"]
    missing = [p for p in sources if not os.path.exists(p)]
    if missing:
        print("run.py: not a repository root (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode

    cmd = [
        os.path.join(BUILD, "perfbench/cbench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cschedd", os.path.join(BUILD, "bin/cschedd.exe"),
        "--csched", os.path.join(BUILD, "bin/csched.exe"),
        "--nproc", str(len(os.sched_getaffinity(0))),
        "--commit", commit(),
        "--clk-tck", str(os.sysconf("SC_CLK_TCK")),
    ]
    # Own process group: whatever happens, the load generator and the
    # daemons it started are gone when this script returns, also when
    # this script is told to stop (SIGTERM runs the cleanup below).
    def stop(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: timed out", file=sys.stderr)
        rc = 1
    except KeyboardInterrupt:
        rc = 130
    finally:
        # SIGTERM lets the load generator stop its daemons and remove its
        # scratch files; SIGKILL takes whatever is left of the group.
        for sig, grace in ((signal.SIGTERM, 10), (signal.SIGKILL, None)):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
        # The load generator removes its scratch directory (under
        # .bench_out, see out_dir in cbench.ml) itself unless it was
        # killed.
        shutil.rmtree(os.path.join(".bench_out", "run-%d" % proc.pid), ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
