#!/usr/bin/env python3
"""Build the benchmark and the alem-serve binary from source, then run it.

Usage (from the repository root):

    python3 alembench/run.py --workload qbc-cora --seed 1 --seconds 20 --trace 0
    python3 alembench/run.py --self-test

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the current
directory); cargo's output goes to stderr, so the benchmark's standard output
ends with its one-line JSON result. Exits non-zero if a build fails.

The benchmark, and the server it starts, run pinned to one CPU (the last one
this process may use). In serve-wire a wait is a round trip between the
labeler's thread and a server thread; on two virtual CPUs each round trip
could wake the other CPU, and that wake-up latency, which follows the host's
load, was most of a wait: on a loaded host, runs took twice as long
unpinned, and CPU steal read 0.24-0.27 against 0.05-0.07 pinned.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(here, "Cargo.toml")],
        ["--manifest-path", os.path.join(root, "crates", "serve", "Cargo.toml"),
         "--bin", "alem-serve"],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("alembench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "alembench"),
           "--server-bin", os.path.join(release, "alem-serve"),
           "--work-dir", os.path.join(target, "alembench-run")] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
