#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload read_large --seed 1 --seconds 25 --trace 0

The library under src/ and the program in perfbench/ are compiled (Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs rebuild incrementally. Build output goes to stderr, so the program's
JSON result stays the last line of stdout. The exit code is the program's,
or non-zero when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the program; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if subprocess.call(["cmake", "--build", out, "-j", jobs],
                       stdout=sys.stderr) != 0:
        return None
    return os.path.join(out, "vitri_perfbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    # A path relative to the working directory keeps the server's unix
    # socket path short whatever the checkout's location.
    workdir = os.path.relpath(os.path.join(build_dir(), "run"))
    return subprocess.call([binary, *sys.argv[1:], "--workdir", workdir])


if __name__ == "__main__":
    sys.exit(main())
