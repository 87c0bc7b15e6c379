#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sp2b-cold, gmark-paths, serve-hot, serve-mixed. The build goes
to $CARGO_TARGET_DIR (default .bench_build) as an optimized CMake build of
perfbench/CMakeLists.txt, which compiles the library under src/. Build
output goes to stderr; the benchmark's own output goes to stdout, whose
last line is the JSON result. Extra arguments (e.g. --quick) are passed
through to the benchmark binary. See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                      cwd=ROOT).returncode != 0:
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def source_id():
    """Git commit when available, plus a digest of the library sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    for base in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s,src:%s" % (commit or "unknown", digest.hexdigest()[:12])


def main(argv):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no library sources (src/) in %s" % ROOT,
              file=sys.stderr)
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + argv + ["--trace-dir", trace_dir,
                             "--commit", source_id()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
