#!/usr/bin/env python3
"""Build and run the partition-service benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It configures and builds perfbench/ (which builds the repository's
libraries from ../src) under .bench_build/perfbench, then runs the
benchmark binary.
Build output goes to stderr; the binary's stdout is passed through, and its
last line is the JSON result. With --trace 0, setup_s is the median of
COLD_SETUPS set-ups, each in a fresh process from process start: the full
run's own and those of COLD_SETUPS - 1 set-up-only runs made before it.
With --trace 1 the Chrome trace is written to
.bench_build/trace-<workload>-seed<N>.json. Extra arguments (for example
--requests N) are handed to the binary. See perfbench/README.md.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
COLD_SETUPS = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def arg_value(argv, flag):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are not next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_captured(cmd, deadline):
    """Run cmd, pass its stdout through but the last line, and return
    (exit code, the last line parsed as the JSON result)."""
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    lines = out.stdout.splitlines()
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    try:
        return out.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result from %s (exit %d)" % (cmd[0], out.returncode))


def run_end_to_end(cmd, deadline):
    runs = [run_captured(cmd + ["--setup-only"], deadline)
            for _ in range(COLD_SETUPS - 1)]
    runs.append(run_captured(cmd, deadline))
    final = runs[-1][1]
    setups = [result["metrics"]["setup_s"]["value"] for _, result in runs]
    print("# cold_setups_s=" + " ".join("%.3f" % s for s in setups))
    final["metrics"]["setup_s"]["value"] = statistics.median(setups)
    final["correct"] = all(result["correct"] for _, result in runs)
    print(json.dumps(final))
    return 0 if final["correct"] and all(rc == 0 for rc, _ in runs) else 1


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    cmd = [os.path.join(BUILD, "perfbench")] + argv + ["--git-sha", git_sha()]
    traced = arg_value(argv, "--trace") not in (None, "0")
    if traced:
        trace = "trace-%s-seed%s.json" % (arg_value(argv, "--workload"),
                                          arg_value(argv, "--seed"))
        cmd += ["--trace-out", os.path.join(ROOT, ".bench_build", trace)]
    sys.stdout.flush()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        if traced:
            return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        return run_end_to_end(cmd, deadline)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
