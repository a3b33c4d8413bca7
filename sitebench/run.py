#!/usr/bin/env python3
"""Builds the sitebench binary from source and runs one workload.

Usage, from the repository root:

    python3 sitebench/run.py --workload manage|transfer \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/sitebench (default
.bench_build/sitebench) as an optimized CMake build of the program's
libraries plus the benchmark binary. Build output goes to stderr, so
the last line of stdout is the binary's result JSON. Exits non-zero
without a result when the program sources are missing or the build
fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """Short SHA-256 over the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", "sitebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(build_dir):
    """Configures (once) and builds the binary; True on success."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "sitebench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["manage", "transfer"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("sitebench: program sources (src/) not found", file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "sitebench")
    if not build(build_dir):
        print("sitebench: build failed", file=sys.stderr)
        return 1
    span_dir = os.path.join(build_dir, "spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [os.path.join(build_dir, "sitebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--commit", git_commit(), "--source-digest", source_digest(),
               "--span-dir", span_dir]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
