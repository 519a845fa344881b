#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload alexnet-hpa --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (the d3 library, d3c, d3_node
and the d3perf harness) into .bench_build/ on first use, runs d3perf, and
keeps each run's result and trace under .bench_build/results/.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("alexnet-hpa", "alexnet-vsm", "tiny-serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_bounded(argv, timeout, **kwargs):
    """Runs argv in its own process group; kills the group on timeout and
    when this script is terminated."""
    proc = subprocess.Popen(argv, start_new_session=True, **kwargs)

    def kill_group(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, kill_group)
                for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return proc.returncode, out


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "d3perf"])
    for argv in steps:
        code, _ = run_bounded(argv, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError(f"build step failed: {' '.join(argv)}")


def tree_hash(root):
    """SHA-256 over the sources the benchmark builds from."""
    digest = hashlib.sha256()
    paths = [root / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        paths += sorted(p for p in (root / top).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    build_dir = root / ".bench_build"
    try:
        build(root, build_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = build_dir / "work" / f"{tag}-{os.getpid()}"
    results = build_dir / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    argv = [str(build_dir / "d3perf"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bin-dir", str(build_dir / "d3"), "--work-dir", str(work),
            "--stamp", f"git_sha={git_sha(root)}", "--stamp", f"tree_sha256={tree_hash(root)}"]
    try:
        code, out = run_bounded(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        log(f"d3perf exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if (work / "trace.json").exists():
            shutil.move(str(work / "trace.json"), str(results / f"{tag}.trace.json"))
        shutil.rmtree(work, ignore_errors=True)

    lines = [line for line in out.splitlines() if line.strip()]
    stamp = [line for line in lines if line.startswith("STAMP ")]
    if code != 0 or not lines or not lines[-1].startswith("{"):
        log(f"d3perf exited with code {code}")
        if lines and lines[-1].startswith("{"):
            print(lines[-1])
        return code or 1
    (results / f"{tag}.json").write_text(
        "{\"stamp\": " + (stamp[-1][6:] if stamp else "null") + ",\n \"result\": " + lines[-1]
        + "}\n")
    for line in stamp:
        print(line)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
