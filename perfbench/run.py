#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Workloads: replay, fleet, rebuild, campaign (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics and
the tracing overhead. --size tiny runs smoke-test sizes.

The harness is configured (Release) and built under .bench_build/perfbench
of the checkout that holds this script, on first use; later runs rebuild
incrementally. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. A failed build, bad arguments or
a harness failure exit non-zero without printing it.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("replay", "fleet", "rebuild", "campaign")
# The harness bounds its own run time; this only guards against a hang.
HARNESS_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; exits on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def source_id():
    """The git commit when the checkout is a repository, plus a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return f"{commit or 'none'}+src-sha256:{digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    work_dir = BUILD / "work"
    work_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work-dir", str(work_dir),
           "--commit", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
