#!/usr/bin/env python3
"""Unit tests for coverage_check.py over synthetic gcov JSON documents.

Pins what the CI coverage job depends on: copies of one function in
several translation units fold into one location that ran if any copy
ran; files outside src/ are ignored; a never-run function fails unless
listed; a listed function that runs (or is gone) fails too.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import coverage_check  # noqa: E402

REPO = "/repo"


def doc(path, functions):
    """One gcov document: functions as (name, start_line, count)."""
    return {
        "current_working_directory": REPO + "/build/src",
        "files": [{
            "file": path,
            "functions": [{"demangled_name": n, "start_line": l,
                           "execution_count": c} for n, l, c in functions],
        }],
    }


class MergeTests(unittest.TestCase):
    def test_copies_fold_into_one_location_that_ran_if_any_ran(self):
        docs = [
            doc(REPO + "/src/a.hpp", [("f()", 10, 0), ("g()", 20, 0)]),
            doc(REPO + "/src/a.hpp", [("f()", 10, 3)]),
            doc("../../src/b.cpp", [("h<int>()", 5, 0)]),
            doc("../../src/b.cpp", [("h<float>()", 5, 0)]),
            doc("/usr/include/c++/vector", [("std::x()", 1, 0)]),
            doc(REPO + "/tests/t.cpp", [("t()", 1, 0)]),
        ]
        functions = coverage_check.merge(docs, REPO)
        self.assertEqual(set(functions), {("src/a.hpp", 10), ("src/a.hpp", 20),
                                          ("src/b.cpp", 5)})
        self.assertTrue(functions[("src/a.hpp", 10)][0])
        self.assertFalse(functions[("src/a.hpp", 20)][0])
        self.assertEqual(functions[("src/b.cpp", 5)][1],
                         {"h<int>()", "h<float>()"})


class CheckTests(unittest.TestCase):
    FUNCTIONS = {
        ("src/a.cpp", 1): [True, {"ran()"}],
        ("src/a.cpp", 9): [False, {"dead()"}],
        ("src/b.hpp", 4): [False, {"t<int>()", "t<float>()"}],
    }

    def test_every_never_run_location_listed_passes(self):
        _, ok = coverage_check.check(
            self.FUNCTIONS, {"dead()": "why", "t<float>()": "why"})
        self.assertTrue(ok)

    def test_unlisted_never_run_function_fails(self):
        report, ok = coverage_check.check(self.FUNCTIONS,
                                          {"t<int>()": "why"})
        self.assertFalse(ok)
        self.assertTrue(any("NOT ALLOWLISTED  src/a.cpp:9  dead()" in line
                            for line in report))

    def test_listed_function_that_runs_or_is_gone_fails(self):
        for stale in ("ran()", "deleted()"):
            report, ok = coverage_check.check(
                self.FUNCTIONS,
                {"dead()": "why", "t<int>()": "why", stale: "why"})
            self.assertFalse(ok, stale)
            self.assertTrue(any("LISTED BUT NOT NEVER-RUN" in line and
                                stale in line for line in report))


class AllowlistTests(unittest.TestCase):
    def parse(self, text):
        with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                         delete=False) as f:
            f.write(text)
        try:
            return coverage_check.parse_allowlist(f.name)
        finally:
            os.unlink(f.name)

    def test_names_may_contain_hashes_and_spaces(self):
        entries = self.parse(
            "# comment\n\n"
            "f()::{lambda()#1}::operator()() const # closure reason\n"
            "g(char const*, int) # runs only on failure\n")
        self.assertEqual(entries, {
            "f()::{lambda()#1}::operator()() const": "closure reason",
            "g(char const*, int)": "runs only on failure"})

    def test_entry_without_reason_is_rejected(self):
        with self.assertRaises(ValueError):
            self.parse("f()\n")
        with self.assertRaises(ValueError):
            self.parse("f() # \n")


if __name__ == "__main__":
    unittest.main()
