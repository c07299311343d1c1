#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

Run from the repository root:

    python3 cmd/perfbench/run.py --workload paper-sweep --seed 1 --seconds 15 --trace 0

The binary and the Go build cache go to the build
directory ($CARGO_TARGET_DIR, default .bench_build) under the current
directory, so a run reads and writes nothing outside the checkout. The
program's output is passed through; its last line is the result object.
A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME", "XDG_CACHE_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 1

    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
