#!/usr/bin/env python3
"""Function-coverage ratchet for src/.

Reads the gcov counts of a `--coverage` build after its tests ran, merges
them across every translation unit (libraries, tests, benchmark programs
and examples alike) and checks the set of src/ functions that never ran
against an allowlist.

A function is keyed on its src/ file and start line, so every
instantiation of a template and every inline copy of a header function
folds into one location; the location counts as run if any copy in any
translation unit ran. Every .gcno file is read, so a source file whose
object was never linked into a program that ran still shows up (gcov
treats a missing .gcda as "not executed"). The check sees only functions
the compiler emitted: an inline or template function in a src/ header that
no translation unit uses leaves no gcov record, so it can never show up
here as never-run.

Allowlist format (scripts/coverage_allowlist.txt): one entry per line,

    <demangled function name> # <reason it may never run in tier-1>

with blank lines and lines starting with '#' ignored. The check fails when
a never-run location has no listed name, and when a listed name no longer
names a never-run location (it now runs, or it is gone): the list can only
shrink.

Usage: coverage_check.py BUILD_DIR
Exit status: 0 clean, 1 ratchet violated, 2 usage or gcov error.
"""

import json
import os
import subprocess
import sys

BATCH = 32  # .gcno files per gcov process


def parse_allowlist(path):
    entries = {}
    with open(path, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition(" # ")
            if not sep or not reason.strip():
                raise ValueError(f"{path}:{number}: expected "
                                 "'<demangled name> # <reason>'")
            entries[name.strip()] = reason.strip()
    return entries


def gcov_documents(build_dir):
    notes = []
    for root, _, files in os.walk(build_dir):
        notes.extend(os.path.join(root, f) for f in files
                     if f.endswith(".gcno"))
    notes.sort()
    if not notes:
        raise RuntimeError(f"no .gcno files under {build_dir}: "
                           "not a --coverage build")
    for i in range(0, len(notes), BATCH):
        out = subprocess.run(["gcov", "-j", "-m", "-t", *notes[i:i + BATCH]],
                             cwd=build_dir, check=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def merge(documents, repo):
    """Folds gcov JSON documents into src/ locations.

    Returns {(file, line): [run, names]}.
    """
    functions = {}
    src = os.path.join(repo, "src") + os.sep
    for doc in documents:
        cwd = doc.get("current_working_directory", "")
        for entry in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, repo)
            for fn in entry["functions"]:
                key = (rel, fn["start_line"])
                slot = functions.setdefault(key, [False, set()])
                slot[0] = slot[0] or fn["execution_count"] > 0
                slot[1].add(fn["demangled_name"])
    return functions


def check(functions, allow):
    """Report lines for the never-run locations, and whether the ratchet
    holds."""
    report = []
    ok = True
    never_names = set()
    for (path, line), (run, names) in sorted(functions.items()):
        if run:
            continue
        never_names |= names
        listed = sorted(names & allow.keys())
        if listed:
            report.append(f"  allowed  {path}:{line}  {listed[0]}  "
                          f"({allow[listed[0]]})")
        else:
            report.append(f"  NEVER RUN, NOT ALLOWLISTED  {path}:{line}  "
                          f"{sorted(names)[0]}")
            ok = False
    for name in sorted(allow.keys() - never_names):
        report.append("  LISTED BUT NOT NEVER-RUN (remove it from the "
                      f"allowlist)  {name}")
        ok = False
    return report, ok


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: coverage_check.py BUILD_DIR", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    allowlist = os.path.join(here, "coverage_allowlist.txt")

    try:
        allow = parse_allowlist(allowlist)
        functions = merge(gcov_documents(os.path.abspath(args[0])),
                          os.path.dirname(here))
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as e:
        print(f"coverage: {e}", file=sys.stderr)
        return 2

    never = sum(1 for run, _ in functions.values() if not run)
    print(f"coverage: {len(functions) - never} of {len(functions)} "
          f"src/ function locations run, {never} never run")
    report, ok = check(functions, allow)
    for line in report:
        print(line)
    if not ok:
        print("coverage: FAILED — run the new function in a tier-1 test, "
              "delete it, or list it with a reason in "
              f"{os.path.relpath(allowlist)}")
        return 1
    print("coverage: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
