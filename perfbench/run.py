#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig9-small --seed 1 --seconds 10 --trace 0

The Go build and everything the run leaves behind (build cache, binary,
trace files) stay in .bench_build/ at the root of the checkout. Arguments
are passed through to the benchmark binary; the traced run's Chrome
trace_event file goes to .bench_build/trace/<workload>-seed<seed>.json.
The exit code is the build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def arg_value(args, name, default):
    """The value of --name/-name in args (either "--name v" or "--name=v")."""
    for i, a in enumerate(args):
        for prefix in ("--" + name, "-" + name):
            if a == prefix and i + 1 < len(args):
                return args[i + 1]
            if a.startswith(prefix + "="):
                return a[len(prefix) + 1:]
    return default


def main():
    args = sys.argv[1:]
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    for d in ("tmp", "trace"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    trace_out = os.path.join(BUILD, "trace", "%s-seed%s.json" % (
        arg_value(args, "workload", "none"), arg_value(args, "seed", "1")))
    cmd = [binary, "-refs", os.path.join(HERE, "references.json"),
           "-trace-out", trace_out] + args
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
