#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload fig1a-multicast --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (build cache and
module cache included), so the run reads and writes only inside the
checkout. The program's standard output is passed through; its last line
is the JSON result. The exit code is the program's, or 1 if the build
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_rev(root: str) -> str:
    """The checkout's git revision, "+modified" if it has changes, or ""."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = rev.stdout.split()
        # A checkout that merely sits inside another repository has none.
        if rev.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
            return ""
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=30)
        return lines[1] + ("+modified" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return ""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    env["E2EBENCH_GIT_REV"] = git_rev(root)
    binary = os.path.join(build, "e2ebench")
    try:
        b = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", repr(args.seconds),
        "-trace", str(args.trace),
    ]
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
