#!/usr/bin/env python3
"""Build and run the lclscape end-to-end benchmark.

    python3 lclbench/run.py --workload survey-d2l2 --seed 1 --seconds 55 --trace 0
    python3 lclbench/run.py --self-test

Run from anywhere inside a checkout. The first call configures and builds
lclbench (and the src/ libraries it links) into .bench_build/lclbench with
CMake; later calls only rebuild what changed. The result JSON is
the last line of standard output; build logs go to standard error.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("survey-d2l2", "lcld-classify", "survey-d2l3", "survey-d2l3-j2",
             "survey-d4l2")
# A first call that builds must still end within 900 s, any other within
# 180 s. A clean build takes about 45 s on four cores.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(message):
    sys.stderr.write("lclbench: %s\n" % message)
    return 2


def build(root, build_dir, target):
    """Configures once, then builds `target`. Returns True on success."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    # Compiler temporaries stay inside the checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(root / "lclbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", target, "-j", jobs],
        stdout=sys.stderr, env=env,
        timeout=max(1.0, deadline - time.monotonic()))
    return result.returncode == 0


def source_digest(root):
    """SHA-256 over the paths and bytes of the sources the benchmark builds,
    so a result from a checkout without git history still names its code."""
    digest = hashlib.sha256()
    paths = [root / "CMakeLists.txt"]
    for top in ("src", "lclbench"):
        paths += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the reference-check self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        return fail("--seed wants N >= 0 and --seconds 1..600")

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "CMakeLists.txt").is_file():
        return fail("no lclscape sources at %s" % root)
    build_dir = root / ".bench_build" / "lclbench"
    ref_dir = root / "lclbench" / "ref"
    golden = root / "tests" / "golden" / "survey-d3-l2.json"

    target = "lclbench_selftest" if args.self_test else "lclbench"
    try:
        if not build(root, build_dir, target):
            return fail("build failed")
        if args.self_test:
            command = [str(build_dir / target), str(ref_dir), str(golden)]
        else:
            command = [str(build_dir / target),
                       "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", args.trace,
                       "--ref-dir", str(ref_dir), "--golden", str(golden),
                       "--out-dir", str(build_dir / "out"),
                       "--source-digest", source_digest(root)]
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired as e:
        return fail("timed out: %s" % " ".join(e.cmd))


if __name__ == "__main__":
    sys.exit(main())
