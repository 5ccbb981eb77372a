#!/usr/bin/env python3
"""Alternating perfbench pairs: a base revision against the working tree.

Usage, from the repository root:

    python3 scripts/perf_pairs.py --base REV [--pairs 10] [--seed 1] \\
        [--json FILE]

The base revision is exported with `git archive` into
.bench_build/perf_pairs/<sha>/ (kept, so later invocations reuse its
perfbench build; an export is unpacked under <sha>.tmp/ and renamed only
once complete) and the working tree runs as it is. Every workload
BENCHMARK.json lists runs for its run_seconds. Pair i uses seed
`--seed + i` on both sides; even pairs run the base first, odd pairs the
working tree first. Each run is `perfbench/run.py --trace 0` in its own
tree, unchanged; the base export runs with GIT_CEILING_DIRECTORIES set to
the exports directory, so git cannot find the enclosing repository and
the base runs report git_sha "unknown" rather than the working tree's
HEAD. For every end-to-end metric BENCHMARK.json lists, the
script prints each pair's ratio (working tree / base), each side's median
and quartiles, the wins, and whether a gain holds by the rule in
BENCHMARK's method: the working tree wins at least nine pairs in ten
(ties count for neither) and the medians differ by more than the base's
interquartile range. `--json` also writes every run's result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORTS = os.path.join(ROOT, ".bench_build", "perf_pairs")
# A trial below this fraction of its run's fastest trial sits at the slow
# throughput level (ROADMAP item 1 describes the two levels).
SLOW_LEVEL = 0.8


def parse_result(stdout):
    """The JSON result perfbench/run.py prints as its last stdout line,
    with the revision from the `# git=<sha> ...` header line under "git"
    and the per-trial header lines (`# trial_<name>= v v ...`) of the
    timed run under "trials"."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("last line is not a perfbench result")
    result["trials"] = {}
    for line in lines[:-1]:
        if line.startswith("# git="):
            result["git"] = line[len("# git="):].split()[0]
        elif line.startswith("# trial_") and "=" in line:
            name, values = line[len("# trial_"):].split("=", 1)
            result["trials"][name] = [float(v) for v in values.split()]
    return result


def slow_trials(trial_req_per_s, level=SLOW_LEVEL):
    """Indices of the trials whose throughput sits below `level` times
    the run's fastest trial: the slow level of a two-level run."""
    if not trial_req_per_s:
        return []
    best = max(trial_req_per_s)
    return [i for i, v in enumerate(trial_req_per_s) if v < level * best]


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_order(pair):
    """Which side runs first in pair `pair` (0-based): alternating."""
    return ("base", "work") if pair % 2 == 0 else ("work", "base")


def summarize(name, better, pairs):
    """Aggregate one metric over pairs of (base value, work value).

    better is "lower" or "higher". Returns a dict with the per-pair
    ratios (work / base), each side's quartiles, the wins and the gain
    verdict."""
    base = [b for b, _ in pairs]
    work = [w for _, w in pairs]
    ratios = [w / b if b != 0 else float("nan") for b, w in pairs]
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, w in pairs if sign * (w - b) > 0)
    losses = sum(1 for b, w in pairs if sign * (w - b) < 0)
    bq = quartiles(base)
    wq = quartiles(work)
    base_iqr = bq[2] - bq[0]
    gain = (wins * 10 >= 9 * len(pairs) and
            sign * (wq[1] - bq[1]) > base_iqr)
    return {
        "metric": name,
        "better": better,
        "ratios": ratios,
        "median_ratio": statistics.median(ratios),
        "base_quartiles": bq,
        "work_quartiles": wq,
        "base_iqr": base_iqr,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "gain": gain,
    }


def end_to_end_metrics(benchmark):
    """(name, better) of every end-to-end metric BENCHMARK.json declares."""
    return [(m["name"], m["better"]) for m in benchmark["end_to_end"]]


def format_summary(s):
    bq, wq = s["base_quartiles"], s["work_quartiles"]
    return ("%-16s better=%-6s base %.4g [%.4g, %.4g]  work %.4g [%.4g, %.4g]"
            "  median ratio %.3f  base IQR %.4g  wins %d/%d losses %d  %s"
            % (s["metric"], s["better"], bq[1], bq[0], bq[2], wq[1], wq[0],
               wq[2], s["median_ratio"], s["base_iqr"], s["wins"],
               s["pairs"], s["losses"], "GAIN" if s["gain"] else "-"))


def export_base(rev, exports=EXPORTS):
    """Export `rev` once into exports/<sha>; returns the directory.

    The archive is unpacked into exports/<sha>.tmp, which is renamed only
    after tar and git archive both succeed, so an interrupted export is
    never mistaken for a complete one."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], capture_output=True, text=True,
                         check=True).stdout.strip()
    target = os.path.join(exports, sha)
    if os.path.isdir(target):
        return target
    partial = target + ".tmp"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", partial], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError("git archive %s failed" % sha)
    os.rename(partial, target)
    return target


def base_env(exports=EXPORTS):
    """The environment of a base run: git stops looking for a repository
    at the exports directory, so the export is not read as part of the
    working tree's repository."""
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = os.path.abspath(exports)
    return env


def run_perfbench(tree, workload, seed, seconds, env=None):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
    try:
        result = parse_result(out.stdout)
    except ValueError:
        sys.stderr.write(out.stderr)
        raise
    result["exit_code"] = out.returncode
    if out.returncode:
        sys.stderr.write(out.stderr)
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base git revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    metrics = end_to_end_metrics(benchmark)
    trees = {"base": export_base(args.base), "work": ROOT}
    envs = {"base": base_env(), "work": None}

    runs = []
    for workload in workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            results = {}
            for side in run_order(pair):
                results[side] = run_perfbench(trees[side], workload, seed,
                                              seconds, envs[side])
            runs.append({"workload": workload, "pair": pair, "seed": seed,
                         "first": run_order(pair)[0], **results})
            print("%s pair %d seed %d (%s first): %s" % (
                workload, pair, seed, run_order(pair)[0], "  ".join(
                    "%s %.4g/%.4g" % (name,
                                      results["base"]["metrics"][name]["value"],
                                      results["work"]["metrics"][name]["value"])
                    for name, _ in metrics)), flush=True)
            print("  slow trials (below %.0f%% of the run's fastest): %s" % (
                100 * SLOW_LEVEL, "  ".join(
                    "%s %s" % (side, slow_trials(
                        results[side]["trials"].get("req_per_s", [])) or "none")
                    for side in ("base", "work"))), flush=True)

    ok = True
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        print("\n== %s: %d pairs, base %s vs working tree" % (
            workload, len(mine), args.base))
        for r in mine:
            for side in ("base", "work"):
                failed = r[side].get("failed", 0)
                if not r[side].get("correct") or failed or r[side]["exit_code"]:
                    ok = False
                    print("pair %d %s: correct=%s failed=%s exit=%d" % (
                        r["pair"], side, r[side].get("correct"), failed,
                        r[side]["exit_code"]))
        for name, better in metrics:
            s = summarize(name, better,
                          [(r["base"]["metrics"][name]["value"],
                            r["work"]["metrics"][name]["value"])
                           for r in mine])
            print(format_summary(s))
            print("%-16s ratios %s" % ("", " ".join(
                "%.3f" % x for x in s["ratios"])))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(runs, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
