#!/usr/bin/env python3
"""Build andi-serve and the perfbench binary from source, then run one
benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload assess_hot --seed 1 --seconds 25 --trace 0

Build output goes to stderr; stdout carries the metric table and, as
its last line, the JSON result. Binaries land in $CARGO_TARGET_DIR
(default: .bench_build under the repository root). Exits non-zero
without a result line when the build fails or a run cannot complete,
and non-zero after the result line when an answer check failed.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_dir = os.path.join(ROOT, target_dir)
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo workspace at " + ROOT)
    cargo_build(["-p", "andi-serve"], target_dir)
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:]
    cmd += ["--serve-bin", os.path.join(release, "andi-serve")]
    # A process group of its own, so anything perfbench leaves behind
    # can be stopped as a group.
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
