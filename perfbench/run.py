#!/usr/bin/env python3
"""Build the AITIA benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-pruned --seed 1 --seconds 45 --trace 0

The benchmark program (perfbench/bin/aitia_bench.ml) is built with dune into
.bench_build/ and passed every argument unchanged.  Its last line of
standard output is the JSON result.  When the build fails (for instance
in a directory that holds only the benchmark and not the repository it
measures), this script exits 1 without printing a result.
"""

import glob
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bin/aitia_bench.exe"
RUN_TIMEOUT_S = 170


def find_dune():
    """The dune executable and the environment to run it in."""
    env = dict(os.environ)
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if d and os.access(os.path.join(d, "dune"), os.X_OK):
            return os.path.join(d, "dune"), env
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for dune in candidates:
        if os.access(dune, os.X_OK):
            bindir = os.path.dirname(dune)
            env["PATH"] = bindir + os.pathsep + env.get("PATH", "")
            env.setdefault("OPAM_SWITCH_PREFIX", os.path.dirname(bindir))
            return dune, env
    return None, env


def main():
    dune, env = find_dune()
    if dune is None:
        print("run.py: dune not found", file=sys.stderr)
        return 1
    build = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    proc = subprocess.Popen([exe] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
