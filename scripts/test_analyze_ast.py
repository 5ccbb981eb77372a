#!/usr/bin/env python3
"""Self-tests for the AST-grade concurrency analyzer (rules A1-A4).

Mirrors test_lint_invariants.py: each test seeds one violating fixture
TU into a synthetic tree and asserts the matching rule (and only it)
fires, with a conforming twin asserting the rule stays quiet. The
fixtures run through the analyzer's token scanner (no toolchain
needed), so a silently broken rule fails here before it ships as a
no-op gate.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import analyze_ast  # noqa: E402


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    return path


# Fixtures are scanned, never compiled: includes and macro definitions
# are unnecessary, only the textual patterns matter.
CLEAN_SOURCE = """\
struct Counter {
  std::atomic<unsigned long long> hits{0};
  void bump() TP_LOCK_FREE_AUDITED(
      "relaxed monotonic counter; TSan: test_x Fixture.Clean") {
    hits.fetch_add(1, std::memory_order_relaxed);
  }
};
"""


class AnalyzeAstRuleTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="tp_ast_test_")
        self.root = self._tmp.name
        write(self.root, "src/common/clean.cpp", CLEAN_SOURCE)

    def tearDown(self):
        self._tmp.cleanup()

    def analyze(self):
        return analyze_ast.analyze_token(self.root)

    def assertOnlyRule(self, findings, rule, path_suffix):
        self.assertTrue(findings, f"expected an {rule} finding")
        self.assertEqual({f.rule for f in findings}, {rule},
                         "\n".join(str(f) for f in findings))
        self.assertTrue(any(f.path.endswith(path_suffix) for f in findings))

    def test_clean_tree_passes(self):
        self.assertEqual([str(f) for f in self.analyze()], [])

    # -- A1: explicit memory order ------------------------------------------

    def test_a1_implicit_store(self):
        write(self.root, "src/serve/bad.cpp",
              "struct S {\n"
              "  std::atomic<int> v{0};\n"
              "  void touch() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") { v.store(1); }\n'
              "};\n")
        self.assertOnlyRule(self.analyze(), "A1", "src/serve/bad.cpp")

    def test_a1_implicit_load_and_rmw(self):
        write(self.root, "src/serve/bad.cpp",
              "struct S {\n"
              "  std::atomic<int> v{0};\n"
              "  int touch() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    v.fetch_add(2);\n"
              "    return v.load();\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A1", "src/serve/bad.cpp")
        self.assertEqual(len(findings), 2)

    def test_a1_compound_assignment(self):
        write(self.root, "src/fleet/bad.cpp",
              "struct Counters { std::atomic<unsigned long long> wins{0}; };\n"
              "struct R {\n"
              "  Counters counters_;\n"
              "  void merge(unsigned n) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") { counters_.wins += n; }\n'
              "};\n")
        self.assertOnlyRule(self.analyze(), "A1", "src/fleet/bad.cpp")

    def test_a1_explicit_orders_pass(self):
        write(self.root, "src/serve/ok.cpp",
              "struct S {\n"
              "  std::atomic<int> v{0};\n"
              "  int touch() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    v.store(1, std::memory_order_release);\n"
              "    v.fetch_add(2, std::memory_order_relaxed);\n"
              "    return v.load(std::memory_order_acquire);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a1_multiline_call_sees_order(self):
        # The order argument lives on the next line: balanced-paren
        # argument parsing must still find it (a grep would not).
        write(self.root, "src/serve/ok.cpp",
              "struct S {\n"
              "  std::atomic<unsigned long long> v{0};\n"
              "  void touch(unsigned long long m) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    v.store(m,\n"
              "            std::memory_order_release);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a1_shadowing_local_is_not_an_assignment(self):
        # `const uint64_t meta = slot.meta.load(...)` declares a local
        # shadowing the atomic's field name; it is not operator= on the
        # atomic (the cache.cpp pattern that must stay clean).
        write(self.root, "src/serve/ok.cpp",
              "struct Slot { std::atomic<unsigned long long> meta{0}; };\n"
              "struct C {\n"
              "  Slot slot;\n"
              "  unsigned long long peek() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned long long meta =\n"
              "        slot.meta.load(std::memory_order_acquire);\n"
              "    return meta;\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a1_container_construction_is_not_an_atomic_op(self):
        write(self.root, "src/serve/ok.cpp",
              "struct S {\n"
              "  std::vector<std::atomic<unsigned long long>> stripes_;\n"
              "  explicit S(unsigned n) {\n"
              "    stripes_ = std::vector<std::atomic<unsigned long long>>(n);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    # An atomic read through its implicit operator T: one value context
    # per form, each inside an audited function so only A1 may fire.
    CONV_STRUCT = ("struct G {\n"
                   "  std::atomic<int> flag{0};\n"
                   "  std::atomic<unsigned long long> count{0};\n"
                   "  long long peek() TP_LOCK_FREE_AUDITED(\n"
                   '      "fixture; TSan: test_x F.T") {\n'
                   "    %s\n"
                   "  }\n"
                   "};\n")

    def test_a1_implicit_conversion_reads(self):
        for body in ("return flag;",
                     "return flag == 1;",
                     "return count + 1;",
                     "if (flag) return 1;\n    return 0;",
                     "return !flag;",
                     "int v = flag;\n    return v;"):
            with self.subTest(body=body):
                write(self.root, "src/serve/bad.cpp", self.CONV_STRUCT % body)
                findings = self.analyze()
                self.assertOnlyRule(findings, "A1", "src/serve/bad.cpp")
                self.assertEqual(len(findings), 1)
                self.assertIn("implicit conversion read", str(findings[0]))

    def test_a4_unaudited_conversion_read(self):
        write(self.root, "src/obs/bad.cpp",
              "struct G {\n"
              "  std::atomic<int> flag{0};\n"
              "  bool idle() { return flag == 0; }\n"
              "};\n")
        findings = self.analyze()
        self.assertEqual({f.rule for f in findings}, {"A1", "A4"},
                         "\n".join(str(f) for f in findings))

    def test_a1_conversion_lookalikes_pass(self):
        # Explicit loads, call arguments (the analyzer cannot tell a
        # by-reference parameter from a by-value one, so it never reports
        # them), a reference bound to the atomic, a local shadowing the
        # atomic's name, and a plain CacheCounters-style struct whose
        # fields share atomic names.
        lookalikes = {
            "explicit load":
                "return flag.load(std::memory_order_relaxed) == 1;",
            "seqClaim argument":
                "const unsigned s = seqClaim(slot.seq);\n"
                "    slot.meta.store(1, std::memory_order_release);\n"
                "    seqRelease(slot.seq, s);\n    return 0;",
            "ClaimGuard argument":
                "common::ClaimGuard g(lane.busy);\n"
                "    return g.claimed() ? 1 : 0;",
            "reference binding":
                "std::atomic<int>& r = flag;\n"
                "    return r.load(std::memory_order_relaxed);",
            "shadowing local":
                "const int flag = 3;\n    return flag + 1;",
            "plain namesake fields":
                "CacheCounters c;\n    return c.hits / c.lookups;",
        }
        for what, body in lookalikes.items():
            with self.subTest(what=what):
                write(self.root, "src/serve/ok.cpp",
                      "struct Slot { std::atomic<unsigned> seq{0};\n"
                      "              std::atomic<unsigned long long> meta{0}; };\n"
                      "struct Lane { std::atomic<unsigned> busy{0}; };\n"
                      "struct Stripe {\n"
                      "  std::atomic<unsigned long long> lookups{0};\n"
                      "};\n"
                      "struct CacheCounters {\n"
                      "  unsigned long long hits = 0;\n"
                      "  unsigned long long lookups = 0;\n"
                      "};\n"
                      "struct G { std::atomic<int> flag{0}; Slot slot; "
                      "Lane lane;\n"
                      "  long long peek(); };\n"
                      "long long G::peek() TP_LOCK_FREE_AUDITED(\n"
                      '    "fixture; TSan: test_x F.T") {\n'
                      "    " + body + "\n"
                      "}\n")
                self.assertEqual([str(f) for f in self.analyze()], [])

    # -- A2: seqlock protocol -----------------------------------------------

    SEQ_STRUCT = ("struct Slot {\n"
                  "  std::atomic<unsigned> seq{0};\n"
                  "  std::atomic<unsigned long long> meta{0};\n"
                  "};\n")

    def test_a2_writer_relaxed_store_in_window(self):
        write(self.root, "src/serve/bad.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  void put(unsigned long long m) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s = seqClaim(slot.seq);\n"
              "    slot.meta.store(m, std::memory_order_relaxed);\n"
              "    seqRelease(slot.seq, s);\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A2", "src/serve/bad.cpp")
        self.assertIn("without release order", str(findings[0]))

    def test_a2_writer_store_outside_window(self):
        write(self.root, "src/serve/bad.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  void put(unsigned long long m) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s = seqClaim(slot.seq);\n"
              "    seqRelease(slot.seq, s);\n"
              "    slot.meta.store(m, std::memory_order_release);\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A2", "src/serve/bad.cpp")
        self.assertIn("outside the claim window", str(findings[0]))

    def test_a2_writer_unbalanced_claim(self):
        write(self.root, "src/serve/bad.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  void put(unsigned long long m) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s = seqClaim(slot.seq);\n"
              "    slot.meta.store(m, std::memory_order_release);\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertTrue(any("seqClaim vs" in str(f) for f in findings))
        self.assertEqual({f.rule for f in findings}, {"A2"})

    def test_a2_conforming_writer_passes(self):
        write(self.root, "src/serve/ok.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  void put(unsigned long long m) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s = seqClaim(slot.seq);\n"
              "    slot.meta.store(m, std::memory_order_release);\n"
              "    seqRelease(slot.seq, s);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a2_reader_missing_recheck(self):
        write(self.root, "src/serve/bad.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  unsigned long long read() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s1 = slot.seq.load(std::memory_order_acquire);\n"
              "    return slot.meta.load(std::memory_order_acquire);\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A2", "src/serve/bad.cpp")
        self.assertIn("never re-checks", str(findings[0]))

    def test_a2_reader_non_acquire_sequence_load(self):
        write(self.root, "src/serve/bad.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  unsigned long long read() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    const unsigned s1 = slot.seq.load(std::memory_order_relaxed);\n"
              "    const unsigned long long m =\n"
              "        slot.meta.load(std::memory_order_acquire);\n"
              "    if (slot.seq.load(std::memory_order_relaxed) != s1) return 0;\n"
              "    return m;\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A2", "src/serve/bad.cpp")
        self.assertIn("without acquire order", str(findings[0]))

    def test_a2_conforming_reader_passes(self):
        write(self.root, "src/serve/ok.cpp",
              self.SEQ_STRUCT +
              "struct C {\n"
              "  Slot slot;\n"
              "  unsigned long long read() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    for (;;) {\n"
              "      const unsigned s1 = slot.seq.load(std::memory_order_acquire);\n"
              "      if (s1 & 1u) continue;\n"
              "      const unsigned long long m =\n"
              "          slot.meta.load(std::memory_order_acquire);\n"
              "      if (slot.seq.load(std::memory_order_relaxed) == s1) return m;\n"
              "    }\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    # -- A3: claim/release exception safety ---------------------------------

    def test_a3_throwing_call_between_claim_and_release(self):
        write(self.root, "src/serve/bad.cpp",
              "struct Lane { std::atomic<unsigned> busy{0}; };\n"
              "struct Svc {\n"
              "  Lane lane;\n"
              "  int work();\n"
              "  int serve() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    unsigned expected = 0;\n"
              "    if (!lane.busy.compare_exchange_strong(\n"
              "            expected, 1, std::memory_order_acq_rel)) return -1;\n"
              "    const int r = work();\n"
              "    lane.busy.store(0, std::memory_order_release);\n"
              "    return r;\n"
              "  }\n"
              "};\n")
        findings = self.analyze()
        self.assertOnlyRule(findings, "A3", "src/serve/bad.cpp")
        self.assertIn("ClaimGuard", str(findings[0]))

    def test_a3_raii_guard_passes(self):
        # No manual release store: the guard owns the flag, so a throwing
        # call inside the section is exception-safe by construction.
        write(self.root, "src/serve/ok.cpp",
              "struct Lane { std::atomic<unsigned> busy{0}; };\n"
              "struct Svc {\n"
              "  Lane lane;\n"
              "  int work();\n"
              "  int serve() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    common::ClaimGuard claim(lane.busy);\n"
              "    if (!claim.claimed()) return -1;\n"
              "    const int r = work();\n"
              "    claim.release();\n"
              "    return r;\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a3_safe_calls_only_pass(self):
        write(self.root, "src/serve/ok.cpp",
              "struct Lane { std::atomic<unsigned> busy{0};\n"
              "              std::atomic<unsigned> hits{0}; };\n"
              "struct Svc {\n"
              "  Lane lane;\n"
              "  void serve() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    unsigned expected = 0;\n"
              "    if (!lane.busy.compare_exchange_strong(\n"
              "            expected, 1, std::memory_order_acq_rel)) return;\n"
              "    lane.hits.fetch_add(1, std::memory_order_relaxed);\n"
              "    lane.busy.store(0, std::memory_order_release);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    # -- A4: audit coverage --------------------------------------------------

    def test_a4_unaudited_member_touch(self):
        write(self.root, "src/obs/bad.cpp",
              "struct G {\n"
              "  std::atomic<int> flag{0};\n"
              "  int peek() { return flag.load(std::memory_order_relaxed); }\n"
              "};\n")
        self.assertOnlyRule(self.analyze(), "A4", "src/obs/bad.cpp")

    def test_a4_audited_passes(self):
        write(self.root, "src/obs/ok.cpp",
              "struct G {\n"
              "  std::atomic<int> flag{0};\n"
              "  int peek() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    return flag.load(std::memory_order_relaxed);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a4_mutex_scope_passes(self):
        # A function whose atomic touches sit under a MutexLock is not
        # lock-free code; the capability, not an audit string, covers it.
        write(self.root, "src/obs/ok.cpp",
              "struct G {\n"
              "  common::Mutex mu_;\n"
              "  std::atomic<int> flag{0};\n"
              "  void set() {\n"
              "    common::MutexLock lock(mu_);\n"
              "    flag.store(1, std::memory_order_relaxed);\n"
              "  }\n"
              "};\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    def test_a1_implicit_order_in_slo_shaped_fixture(self):
        # Mirrors SloTracker::record's slice-stamp check: dropping the
        # explicit order from the acquire load must trip A1 even though
        # the function carries an audit tag.
        write(self.root, "src/obs/slo.cpp",
              "struct SubWindow { std::atomic<unsigned long long> slice; };\n"
              "struct Tracker {\n"
              "  SubWindow sub_;\n"
              "  bool stale(unsigned long long s) TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    return sub_.slice.load() != s;\n"
              "  }\n"
              "};\n")
        self.assertOnlyRule(self.analyze(), "A1", "src/obs/slo.cpp")

    def test_a4_unaudited_touch_in_health_shaped_fixture(self):
        # Mirrors a detector rule peeking at a liveness counter: a
        # member-atomic touch in src/obs/health.cpp outside any audit,
        # mutex scope or TP_REQUIRES must trip A4 — the real rules
        # register under audited functions, and that exemption must not
        # silently widen to the whole file.
        write(self.root, "src/obs/health.cpp",
              "struct Monitor {\n"
              "  std::atomic<unsigned long long> rounds{0};\n"
              "  unsigned long long peek() {\n"
              "    return rounds.load(std::memory_order_relaxed);\n"
              "  }\n"
              "};\n")
        self.assertOnlyRule(self.analyze(), "A4", "src/obs/health.cpp")

    def test_a1_implicit_order_in_fault_injector_shaped_fixture(self):
        # Mirrors FaultyTransport::send's injection ledger: the audited
        # hot path bumps per-fault counters with relaxed order, and
        # dropping the explicit order from one bump must trip A1 even
        # under the audit tag — chaos plumbing gets no slack.
        write(self.root, "src/fleet/faulty.cpp",
              "struct FaultyTransport {\n"
              "  std::atomic<unsigned long long> seen_{0};\n"
              "  std::atomic<unsigned long long> injectedDrops_{0};\n"
              "  bool send() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") {\n'
              "    seen_.fetch_add(1, std::memory_order_relaxed);\n"
              "    injectedDrops_.fetch_add(1);\n"
              "    return false;\n"
              "  }\n"
              "};\n")
        self.assertOnlyRule(self.analyze(), "A1", "src/fleet/faulty.cpp")

    def test_a4_unaudited_touch_in_fault_injector_shaped_fixture(self):
        # A counters() accessor reading the injection ledger outside any
        # audit, mutex scope or TP_REQUIRES must trip A4: the real
        # faulty_transport.hpp audits every reader, and that coverage
        # must not silently erode as fault kinds are added.
        write(self.root, "src/fleet/faulty.cpp",
              "struct FaultyTransport {\n"
              "  std::atomic<unsigned long long> injectedDrops_{0};\n"
              "  unsigned long long drops() {\n"
              "    return injectedDrops_.load(std::memory_order_relaxed);\n"
              "  }\n"
              "};\n")
        self.assertOnlyRule(self.analyze(), "A4", "src/fleet/faulty.cpp")

    def test_a4_locals_exempt(self):
        write(self.root, "src/common/ok.cpp",
              "void f() {\n"
              "  std::atomic<int> local{0};\n"
              "  local.store(1, std::memory_order_relaxed);\n"
              "}\n")
        self.assertEqual([str(f) for f in self.analyze()], [])

    # -- allowlists ----------------------------------------------------------

    def test_allowlist_entry_requires_reason(self):
        old = analyze_ast.RULES["A1"]
        analyze_ast.RULES["A1"] = (old[0], (("src/x.cpp", None, ""),))
        try:
            with self.assertRaises(ValueError):
                analyze_ast.validate_allowlists()
        finally:
            analyze_ast.RULES["A1"] = old

    def test_real_allowlists_validate(self):
        analyze_ast.validate_allowlists()  # must not raise

    def test_allowlist_suppresses_by_path_and_symbol(self):
        write(self.root, "src/serve/bad.cpp",
              "struct S {\n"
              "  std::atomic<int> v{0};\n"
              "  void touch() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") { v.store(1); }\n'
              "};\n")
        old = analyze_ast.RULES["A1"]
        analyze_ast.RULES["A1"] = (old[0], (
            ("src/serve/bad.cpp", "v",
             "fixture: this implicit seq_cst is the point of the test"),))
        try:
            self.assertEqual([str(f) for f in self.analyze()], [])
        finally:
            analyze_ast.RULES["A1"] = old


class ExitCodeTests(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="tp_ast_main_")
        self.root = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def test_token_backend_exit_codes_and_json(self):
        write(self.root, "src/m/bad.cpp",
              "struct S {\n"
              "  std::atomic<int> v{0};\n"
              "  void touch() TP_LOCK_FREE_AUDITED(\n"
              '      "fixture; TSan: test_x F.T") { v.store(1); }\n'
              "};\n")
        report = os.path.join(self.root, "report.json")
        self.assertEqual(analyze_ast.main(
            ["--root", self.root, "--json", report]), 1)
        import json
        with open(report, encoding="utf-8") as f:
            data = json.load(f)
        self.assertEqual({f["rule"] for f in data["findings"]}, {"A1"})
        write(self.root, "src/m/bad.cpp", "int x = 1;\n")
        self.assertEqual(analyze_ast.main(["--root", self.root]), 0)


class RealTreeTest(unittest.TestCase):
    """The actual repo must be clean: zero unsuppressed findings."""

    def test_repo_is_clean(self):
        findings = analyze_ast.analyze_token(analyze_ast.REPO_ROOT)
        self.assertEqual([str(f) for f in findings], [])


if __name__ == "__main__":
    unittest.main()
