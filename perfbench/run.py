#!/usr/bin/env python3
"""Build the benchmark from the current sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build is a Release tree of its own under .bench_build/ with flags
pinned in perfbench/CMakeLists.txt; the first run builds it and later runs
only check that it is up to date. Build time is not part of any metric.
The last line of stdout is the result JSON of perfbench (see README.md).
Each run also writes a record of the machine and build it ran on to
.bench_build/records/ and a one-line summary of it to stderr.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT = os.path.join(REPO, ".bench_build")
BUILD = os.path.join(OUT, "cmake")
BINARY = os.path.join(BUILD, "perfbench")
SERVE = os.path.join(BUILD, "pnc", "tools", "pnc_serve")
WORKLOADS = ("train_va", "fleet", "serve_ndjson", "serve_backlog")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def cpus():
    return len(os.sched_getaffinity(0))


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/pnc_serve.cpp"):
        if not os.path.isfile(os.path.join(REPO, needed)):
            fail("no repository sources next to perfbench/ (missing %s)" % needed)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(cpus()),
                      "--target", "perfbench", "pnc_serve_cli"])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step), 3)


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a record names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [os.path.join(REPO, d) for d in ("src", "tools", "perfbench")]
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return None
    done = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the checkers' self-tests and exit")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    build()
    env = dict(os.environ, PNC_THREADS=str(cpus()))
    if args.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest"], env=env).returncode)

    work = os.path.join(OUT, "runs", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--serve-bin", SERVE]
    started = time.time()
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("perfbench exited with code %d" % done.returncode, 1)
    result = json.loads(lines[-1])

    banner = next((l for l in done.stderr.splitlines() if l.startswith("perfbench: workload=")), "")
    fields = dict(kv.split("=", 1) for kv in banner[len("perfbench: "):].split(" ") if "=" in kv)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started": started,
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "simd": fields.get("simd"), "compiler": cmake_cache("CMAKE_CXX_COMPILER"),
        "compiler_version": fields.get("compiler"),
        "flags": cmake_cache("CMAKE_CXX_FLAGS_RELEASE"),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(), "source_digest": source_digest(),
        "result": result,
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    path = os.path.join(OUT, "records", "%d-%s-seed%d-trace%d.json"
                        % (int(started * 1000), args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("perfbench/run.py: record %s: nproc=%s affinity=%s simd=%s compiler=%s %s "
          "flags=%r commit=%s source=%s" % (
              os.path.relpath(path, REPO), record["nproc"], record["affinity"],
              record["simd"], record["compiler"], record["compiler_version"],
              record["flags"], record["git_commit"], record["source_digest"]),
          file=sys.stderr)
    for line in lines:
        print(line)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
