#!/usr/bin/env python3
"""Builds the CORAL end-to-end benchmark from this checkout and runs it.

    python3 e2ebench/run.py --workload serve|closure|update --seed N \
        --seconds S --trace 0|1

The build (CMake, Release) goes to $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench, under the checkout root; build output goes to
stderr. The benchmark's own output is passed through: its last stdout
line is the JSON result. Traced runs leave their spans in the build
directory's out/ folder. See e2ebench/NOTES.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "closure", "update")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git-" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "include", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CORAL sources (src/CMakeLists.txt) in " + ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    step = ["cmake", "--build", build_dir, "--target", "coral_e2e", "-j", "2"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "coral_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    run = subprocess.run([binary, "--workload", args.workload,
                          "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", args.trace,
                          "--out-dir", out_dir,
                          "--source-id", source_id()])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
