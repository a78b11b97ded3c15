#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Nezha epoch pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the repository root. It builds the program's libraries and the
benchmark, optimised with NDEBUG, in .bench_build/ (incremental after the
first run), then runs the benchmark with the program's debug checkers pinned
off. The benchmark's last stdout line is the result JSON; build output goes
to stderr. Traced runs write their spans to .bench_out/.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
RUN_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "perfbench"


def revision():
    """Git commit when there is one, else a digest of the program sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("perfbench: run from the repository root (no program sources here)")
        return 1
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1
    OUT_DIR.mkdir(exist_ok=True)

    env = dict(os.environ)
    # The program's debug-time checkers: off, whatever the caller's shell has.
    env["NEZHA_VERIFY_SCHEDULES"] = "0"
    env.pop("NEZHA_DET_CHECKPOINTS", None)
    env.pop("NEZHA_FLIGHT_DUMP_DIR", None)

    args = sys.argv[1:]
    if "--selftest" not in args:
        args += ["--revision", revision(), "--out", str(OUT_DIR)]
    try:
        proc = subprocess.run([str(binary)] + args, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
