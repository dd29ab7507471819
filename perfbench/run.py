#!/usr/bin/env python3
"""Build and run the Mendel end-to-end benchmark.

    python3 perfbench/run.py --workload protein-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and the library sources under src/) into .bench_build/
at the repository root with an optimized build, runs the self-tests and then
one measured run of the named workload. The last line of standard output is
the JSON result; everything before it is a human-readable report. The
workloads and metrics are described in perfbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_DIR = ROOT / ".bench_run"
BINARY = BUILD / "mendel_perfbench"
WORKLOADS = ("protein-cold", "protein-hot", "dna-ingest")
# A run must end well inside the 180 s a benchmark run is allowed.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("library sources (src/) not found next to perfbench/")
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    result = subprocess.run(
        [cmake, "--build", str(BUILD), "--target", "mendel_perfbench",
         "-j", jobs], stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return result.returncode == 0 and BINARY.is_file()


def revision():
    """git commit when the checkout has one, plus a digest of the sources."""
    sha = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    digest = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return f"git={sha},src={digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        built = build()
    except subprocess.TimeoutExpired:
        built = False
    if not built:
        log("build failed; no measurement")
        return 1

    tmp = RUN_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Block-store spill files go inside the checkout; the deployment and
    # SIMD dispatch are the benchmark's own, not the environment's.
    env["TMPDIR"] = str(tmp)
    for name in ("MENDEL_ENDPOINTS", "MENDEL_ARENA_BUDGET",
                 "MENDEL_SIMD_LEVEL"):
        env.pop(name, None)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
