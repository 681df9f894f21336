#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-extreme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare DIR_A DIR_B

perfbench/ is a Go module of its own that uses the repository's packages
through a replace directive. This script builds it into .bench_build/,
keeping the Go build cache there too, then runs the binary from the
repository root with the same arguments. Its exit status is the
benchmark's; a failed build exits nonzero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "bin", "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
