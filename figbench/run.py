#!/usr/bin/env python3
"""Build figbench from this checkout's sources and run it.

Usage, from the repository root:

    python3 figbench/run.py --workload fig6-cold --seed 0 --seconds 30 --trace 0

Every file the build and the run write stays under .bench_build/ at the
repository root: the Go build cache, temporary files, the binary, the run's
trace stores and its run record. The exit code is the benchmark's; a failed
build exits 1 without printing a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        DRT_OPERAND_CACHE="off",
    )
    env.pop("DRT_TRACE_CACHE", None)
    binary = os.path.join(build, "figbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."], cwd=HERE, env=env, stdout=sys.stderr
    )
    if built.returncode != 0:
        print("figbench: build failed", file=sys.stderr)
        return 1
    work = os.path.join(build, "figbench-work")
    return subprocess.run([binary, "-work", work] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
