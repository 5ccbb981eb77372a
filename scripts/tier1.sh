#!/usr/bin/env sh
# Tier-1 verify: the exact command from ROADMAP.md. CI runs this same
# script so local and CI results cannot drift.
set -eux
cd "$(dirname "$0")/.."
# lint: project invariants (scripts/lint_invariants.py) plus the lint
# engine's own seeded-violation self-tests. Runs first — it is the
# cheapest failure.
python3 scripts/test_lint_invariants.py
python3 scripts/lint_invariants.py --no-headers
# Concurrency analyzer (rules A1-A4): self-tests first, then the
# analyzer over the tree.
python3 scripts/test_analyze_ast.py
python3 scripts/analyze_ast.py
cmake -B build -S .
cmake --build build -j "$(nproc)"
# R5 (header self-sufficiency) needs the compiler; run it after the
# build so an ordinary compile error surfaces with full context first.
python3 scripts/lint_invariants.py
cd build
ctest --output-on-failure -j "$(nproc)"
