#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ (Release) and runs one workload.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: des-paper, des-shard8, serve-intake, serve-paper-m2 (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR/perfbench when that
variable is set, else .bench_build/perfbench; traced runs write their span
file (Chrome/Perfetto JSON) under <build dir>/../spans/. The last line of
standard output is the one-line JSON result. Exits non-zero when the sources
are missing, the build fails, a self-test fails or a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("des-paper", "des-shard8", "serve-intake", "serve-paper-m2")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr (stdout carries results)."""
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sqlb", "service.h")):
        fail(f"no sqlb sources under {ROOT}/src; run from a source checkout")
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_quiet(["cmake", "--build", out, "--target", "sqlb_perfbench",
               "-j", jobs])
    return os.path.join(out, "sqlb_perfbench")


def source_id():
    """The commit when run from a git checkout, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    selftest = subprocess.run([binary, "--self-test"], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(selftest.stdout)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr)
        fail("self-tests failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        spans = os.path.join(os.path.dirname(build_dir()), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    before = cpu_ticks()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    after = cpu_ticks()
    lines = done.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests: on a shared host it
        # explains slow runs and a late generator.
        share = (after[0] - before[0]) / (after[1] - before[1])
        print(f"  host   steal share of CPU time during the run {share:.4f}")
    sys.stderr.write(done.stderr)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        fail(f"no result line (exit code {done.returncode})")
    print(lines[-1])
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
