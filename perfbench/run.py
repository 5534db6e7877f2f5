#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload analytic-j8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a full checkout. The first call configures and
builds perfbench/ (the repository's src/ plus the benchmark) under
.bench_build/perfbench; later calls rebuild only what changed. Build output
goes to stderr. Before the benchmark's own output, one stdout line records
the source being measured (git SHA when available, and a digest of src/ and
perfbench/). The benchmark's last stdout line is its JSON result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def source_info():
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")], cwd=ROOT).returncode
    sha, src = source_info()
    print(f'{{"source": {{"git_sha": "{sha}", "source_digest": "{src}"}}}}', flush=True)
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
