#!/usr/bin/env python3
"""ProteusKV benchmark driver.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. On first use it configures and builds
perfbench/ (which builds the repository's own libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build. It then runs one workload in one process and
prints:

  * the workload's own log (set-up, ops per kind, checks, metrics),
  * a `host` line: nproc, CPU model, compiler, build type, git rev,
  * as the last line, one JSON object with the keys correct, attempted,
    failed and metrics (end-to-end metrics with --trace 0, per-layer
    metrics with --trace 1).

Exit status: 0 when every output check passed, 1 when one failed, 2 on
bad arguments, a missing source tree or a build error.

    python3 perfbench/run.py --regen-matrix perfbench/data/kv_utility_matrix.csv

re-measures the tuned_shift menu sweep and writes it as a RecTM utility
matrix (rows: read-heavy, write-heavy phase; columns: the default menu).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("ycsb_b_large", "mixed_2pc_wal", "tuned_shift")
RUN_TIMEOUT_S = 175


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(targets=("kvbench",)):
    """Configure once, then build `targets`; returns the build dir."""
    for needed in ("CMakeLists.txt", "src/kvstore/kvstore.hpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found next to perfbench/; run from the root "
                "of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release",
               "-DFETCHCONTENT_FULLY_DISCONNECTED=ON"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        die("build failed")
    return out


def source_rev():
    """git rev when the checkout is a repository, else a hash of the
    files the benchmark builds from."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 "perfbench", "CMakeLists.txt"],
                capture_output=True, text=True, timeout=10).stdout.strip()
            return rev.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "no-git:sha256-" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_kvbench(binary, argv):
    try:
        proc = subprocess.run([binary, *argv], capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"kvbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    host, result = {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_HOST "):
            host = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line.split(" ", 1)[1])
        else:
            print(line)
    return proc.returncode, host, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-matrix", metavar="CSV",
                    help="write the tuned_shift menu sweep to CSV and exit")
    args = ap.parse_args()
    if not args.workload and not args.regen_matrix:
        ap.error("--workload is required")

    out = build()
    binary = os.path.join(out, "kvbench")
    work = os.path.join(out, "work")
    argv = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--work-dir", work]
    if args.regen_matrix:
        argv += ["--workload", "tuned_shift", "--trace", "1",
                 "--matrix-out", os.path.abspath(args.regen_matrix)]
    else:
        argv += ["--workload", args.workload, "--trace", str(args.trace)]
    code, host, result = run_kvbench(binary, argv)

    host = {"nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), **host, "git_rev": source_rev()}
    print("host " + json.dumps(host))
    if result is None:
        die(f"kvbench exited with {code} and printed no result")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    if code != 0 or not result["correct"] or result["failed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
