#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare OLD_DIR NEW_DIR

Everything the build and the run write stays under .bench_build/ in the
checkout: the binary, the Go build cache, temporary files and spans.
The program's output passes through unchanged; its exit code is ours.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    for d in ("gocache", "gopath", "config", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "TMPDIR": tmp,
    })
    return env


def main():
    if not os.path.isfile(os.path.join(BENCH, "go.mod")):
        print("run.py: run from the repository root (perfbench/go.mod not found)", file=sys.stderr)
        return 2
    env = build_env()
    built = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
