#!/usr/bin/env python3
"""Build and run the router's end-to-end benchmark.

    python3 perfbench/run.py --workload <mega_board|paper_boards|service_stream> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `lmr_perfbench` (the lmr library from the checkout's src/ plus the
program in perfbench/src/) with CMake in Release mode into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench` at the
checkout root), then runs it. Build output goes to stderr; the benchmark's
stdout passes through unchanged, so its last line is the result JSON.
Traced runs write their Chrome trace and profile under the build directory,
in `traces/`. Exits non-zero without printing a result when the build fails
(for example when the checkout holds no lmr sources).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "lmr_perfbench"
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "router.hpp")):
        print("perfbench: no lmr sources in this checkout", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--parallel", jobs, "--target", BINARY])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(bdir, BINARY)


def main():
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 3
    trace_dir = os.path.join(bdir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--trace-out", trace_dir]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
