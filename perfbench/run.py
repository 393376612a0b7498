#!/usr/bin/env python3
"""Builds the dbibench program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. The library (../src) and dbibench
(perfbench/src) are compiled with CMake into .bench_build/perfbench at
the checkout root; later runs rebuild only what changed. Each run works
in a fresh scratch directory under .bench_build (lake files, the serve
socket), removed afterwards. The traced run (--trace 1) also writes its
span log to .bench_build/spans/<workload>-<seed>.json.

The output of dbibench is passed through unchanged: its last line is the
result JSON. The exit status is its own (0 = every reference check
passed); build or usage failures exit 2 without printing a result.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["replay-rle-x8", "roundtrip-opt-x64", "serve-mixed-x8",
             "adaptive-mixed-x8"]
ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of the library and dbibench sources: the build identity."""
    h = hashlib.sha1()
    for top in (ROOT / "src", BENCH):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if path.suffix not in (".cpp", ".hpp", ".txt"):
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "src-" + h.hexdigest()[:12]


def build():
    OUT.mkdir(exist_ok=True)
    build_id = source_hash()
    stamp = BUILD / "perfbench_build_id"
    with open(OUT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        if not stamp.exists() or stamp.read_text() != build_id:
            subprocess.run(
                ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DDBIBENCH_BUILD_ID={build_id}"],
                stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        jobs = str(min(os.cpu_count() or 1, 4))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", jobs,
             "--target", "dbibench"],
            stdout=sys.stderr, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        stamp.write_text(build_id)
    return BUILD / "dbibench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--fault", action="store_true",
                    help="self-test: corrupt one checked output")
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "api" / "session.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    work = OUT / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = OUT / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out",
                str(spans / f"{args.workload}-{args.seed}.json")]
    if args.fault:
        cmd.append("--fault")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=work)
    code = None
    try:
        code = proc.wait(timeout=min(170, 60 + 4 * args.seconds))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail("dbibench timed out")
    sys.exit(code if code >= 0 else 2)


if __name__ == "__main__":
    main()
