#!/usr/bin/env python3
"""Builds and runs the SGB benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --small

The first form builds the repository's library (its own CMake build, target
`sgb`, Release) and the benchmark program sgb_perfbench into .bench_build/,
runs one workload and relays its report; the last line of standard output is
the JSON result. With --trace 1 the span file is kept in .bench_build/spans/.

--small runs every workload at seconds-scale sizes, untraced and traced,
and checks that each report is complete and correct: the benchmark's own
test.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["checkin_sgb", "tpch_paged", "wire_sessions"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def check_call(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        raise RuntimeError("command failed: " + " ".join(cmd))


def build():
    """Builds libsgb.a with the repository's CMake build, then sgb_perfbench."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at " + ROOT + ": not a checkout of the repository")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    lib_dir = os.path.join(BUILD, "sgb")
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", ROOT, "-B", lib_dir, "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", lib_dir, "--target", "sgb", "-j", jobs])
    library = os.path.join(lib_dir, "src", "libsgb.a")
    bench_dir = os.path.join(BUILD, "perfbench")
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=Release",
                    "-DSGB_SOURCE_DIR=" + ROOT, "-DSGB_LIBRARY=" + library])
    check_call(["cmake", "--build", bench_dir, "-j", jobs])
    return os.path.join(bench_dir, "sgb_perfbench")


def run(binary, workload, seed, seconds, trace, small):
    """Runs sgb_perfbench once; returns (exit code, stdout)."""
    run_dir = os.path.join(BUILD, "run", "%s-%d-%d" % (workload, seed, trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", run_dir]
    if small:
        cmd.append("--small")
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    if trace and proc.returncode == 0:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        shutil.move(os.path.join(run_dir, "spans.json"),
                    os.path.join(spans, "%s-seed%d.json" % (workload, seed)))
    shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, proc.stdout


def small_test(binary):
    """Every workload at small scale, untraced and traced; checks each report."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = json.load(open(spec_path)) if os.path.isfile(spec_path) else None
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 1, 1, trace, True)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s trace %d: exit %d" % (workload, trace, code))
                continue
            result = json.loads(lines[-1])
            print("%s trace %d: attempted %d failed %d correct %s, %d metrics" % (
                workload, trace, result["attempted"], result["failed"], result["correct"],
                len(result["metrics"])))
            if not result["correct"]:
                problems.append("%s trace %d: incorrect results" % (workload, trace))
            if spec is not None:
                wanted = {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
                if wanted != set(result["metrics"]):
                    problems.append("%s trace %d: metrics %s" % (
                        workload, trace, sorted(wanted ^ set(result["metrics"]))))
    for p in problems:
        print("PROBLEM: " + p)
    print("small test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()
    if not args.small and args.workload is None:
        parser.error("--workload is required")
    try:
        binary = build()
    except (RuntimeError, OSError) as e:
        log("build failed: %s" % e)
        return 1
    if args.small and args.workload is None:
        return small_test(binary)
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace, args.small)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
