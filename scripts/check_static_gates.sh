#!/usr/bin/env sh
# Seeded-violation self-tests for the three static-analysis gates
# (thread-safety build, clang-tidy, project lint). A gate that silently
# stopped detecting anything is worse than no gate: each check here
# feeds a known-bad input and asserts the gate FAILS it, then (where
# cheap) a known-good input and asserts the gate passes it.
#
# Needs clang++/clang-tidy for the first two checks; CI installs them.
set -eu
cd "$(dirname "$0")/.."
CLANGXX=${CLANGXX:-clang++}
CLANG_TIDY=${CLANG_TIDY:-clang-tidy}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

# 1. Thread-safety gate: a TP_GUARDED_BY field read without its mutex
#    must be rejected under -Wthread-safety -Werror=thread-safety.
cat > "$tmp/tsa_bad.cpp" <<'EOF'
#include "common/annotations.hpp"
struct Counter {
  tp::common::Mutex mutex;
  int value TP_GUARDED_BY(mutex) = 0;
};
int readUnlocked(Counter& c) { return c.value; }
EOF
if "$CLANGXX" -std=c++20 -Isrc -Wthread-safety -Werror=thread-safety \
    -fsyntax-only "$tmp/tsa_bad.cpp" 2>/dev/null; then
  echo "FAIL: -Wthread-safety accepted an unguarded access to a" \
       "TP_GUARDED_BY field — the annotation macros are not expanding" >&2
  exit 1
fi
echo "ok: thread-safety gate rejects a seeded unguarded access"

# 2. ... and the same field read under MutexLock must pass (the gate
#    fails bad code, not all code).
cat > "$tmp/tsa_good.cpp" <<'EOF'
#include "common/annotations.hpp"
struct Counter {
  tp::common::Mutex mutex;
  int value TP_GUARDED_BY(mutex) = 0;
};
int readLocked(Counter& c) {
  tp::common::MutexLock lock(c.mutex);
  return c.value;
}
EOF
"$CLANGXX" -std=c++20 -Isrc -Wthread-safety -Werror=thread-safety \
    -fsyntax-only "$tmp/tsa_good.cpp"
echo "ok: thread-safety gate accepts the guarded version"

# 3. clang-tidy gate: a use-after-move must fail under the repo config
#    (WarningsAsErrors: '*').
cat > "$tmp/tidy_bad.cpp" <<'EOF'
#include <string>
#include <utility>
std::string consume(std::string s) { return s; }
int length() {
  std::string a = "seeded";
  std::string b = consume(std::move(a));
  return static_cast<int>(a.size() + b.size());
}
EOF
if "$CLANG_TIDY" --config-file=.clang-tidy --quiet "$tmp/tidy_bad.cpp" \
    -- -std=c++20 >/dev/null 2>&1; then
  echo "FAIL: clang-tidy accepted a use-after-move under the repo" \
       "config — check WarningsAsErrors / the bugprone-* enablement" >&2
  exit 1
fi
echo "ok: clang-tidy gate rejects a seeded use-after-move"

# 4. Project lint gate: per-rule seeded-violation unit tests (each rule
#    is fed a synthetic violating tree and must flag it).
python3 scripts/test_lint_invariants.py
echo "ok: lint gate self-tests pass"

# 5. Concurrency analyzer gate (rules A1-A4): the full fixture suite
#    (violating + conforming pair per rule) through the shared rule
#    engine...
python3 scripts/test_analyze_ast.py
echo "ok: analyzer self-tests pass"

# 6. ... and one end-to-end seeded violation per rule family through the
#    CLI itself, asserting exit 1 on a violating tree and exit 0 on its
#    conforming twin — so the process-level wiring (arg parsing, exit
#    codes, allowlist validation) is covered, not just the engine.
seed_ast_case() {
  # $1 = rule tag, $2 = violating TU text, $3 = conforming TU text
  rule=$1
  rm -rf "$tmp/ast/src"
  mkdir -p "$tmp/ast/src/m"
  printf '%s\n' "$2" > "$tmp/ast/src/m/seeded.cpp"
  if python3 scripts/analyze_ast.py --root "$tmp/ast" >/dev/null 2>&1; then
    echo "FAIL: analyze_ast $rule accepted its seeded violation" >&2
    exit 1
  fi
  printf '%s\n' "$3" > "$tmp/ast/src/m/seeded.cpp"
  if ! python3 scripts/analyze_ast.py --root "$tmp/ast" >/dev/null 2>&1; then
    echo "FAIL: analyze_ast $rule rejected its conforming twin" >&2
    exit 1
  fi
  echo "ok: analyzer $rule fails seeded violation, passes conforming twin"
}

AUDIT='TP_LOCK_FREE_AUDITED("gate fixture; TSan: test_x F.T")'
seed_ast_case A1 "
struct S {
  std::atomic<int> v{0};
  void touch() $AUDIT { v.store(1); }
};" "
struct S {
  std::atomic<int> v{0};
  void touch() $AUDIT { v.store(1, std::memory_order_relaxed); }
};"

seed_ast_case A1-conv "
struct S {
  std::atomic<int> v{0};
  bool idle() $AUDIT { return v == 0; }
};" "
struct S {
  std::atomic<int> v{0};
  bool idle() $AUDIT { return v.load(std::memory_order_relaxed) == 0; }
};"

seed_ast_case A2 "
struct Slot { std::atomic<unsigned> seq{0};
              std::atomic<unsigned long long> meta{0}; };
struct C {
  Slot slot;
  void put(unsigned long long m) $AUDIT {
    const unsigned s = seqClaim(slot.seq);
    slot.meta.store(m, std::memory_order_relaxed);
    seqRelease(slot.seq, s);
  }
};" "
struct Slot { std::atomic<unsigned> seq{0};
              std::atomic<unsigned long long> meta{0}; };
struct C {
  Slot slot;
  void put(unsigned long long m) $AUDIT {
    const unsigned s = seqClaim(slot.seq);
    slot.meta.store(m, std::memory_order_release);
    seqRelease(slot.seq, s);
  }
};"

seed_ast_case A3 "
struct Lane { std::atomic<unsigned> busy{0}; };
struct Svc {
  Lane lane;
  int work();
  int serve() $AUDIT {
    unsigned expected = 0;
    if (!lane.busy.compare_exchange_strong(
            expected, 1, std::memory_order_acq_rel)) return -1;
    const int r = work();
    lane.busy.store(0, std::memory_order_release);
    return r;
  }
};" "
struct Lane { std::atomic<unsigned> busy{0}; };
struct Svc {
  Lane lane;
  int work();
  int serve() $AUDIT {
    common::ClaimGuard claim(lane.busy);
    if (!claim.claimed()) return -1;
    const int r = work();
    claim.release();
    return r;
  }
};"

seed_ast_case A4 "
struct G {
  std::atomic<int> flag{0};
  int peek() { return flag.load(std::memory_order_relaxed); }
};" "
struct G {
  std::atomic<int> flag{0};
  int peek() $AUDIT {
    return flag.load(std::memory_order_relaxed);
  }
};"
