#!/usr/bin/env sh
# Coverage ratchet: build the `coverage` preset (Debug, --coverage -O0),
# run every ctest entry from a clean slate of counts, then check the src/
# functions that never ran against scripts/coverage_allowlist.txt
# (scripts/coverage_check.py merges the counts of every translation unit,
# tests and bench programs included). Fails when a never-run function is not
# listed, or a listed one now runs. Not part of tier-1: the -O0 ctest
# pass takes minutes; CI runs it as the `coverage` job.
set -eux
cd "$(dirname "$0")/.."
cmake --preset coverage
cmake --build --preset coverage -j "$(nproc)"
find build-coverage -name '*.gcda' -delete
ctest --preset coverage -j "$(nproc)"
python3 scripts/coverage_check.py build-coverage
