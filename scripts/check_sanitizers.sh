#!/usr/bin/env bash
# Sanitizer gate, two passes:
#  1. ASan+UBSan: configures the sanitized build tree build-asan with
#     -DFTX_SANITIZE=address,undefined, builds it, and runs every CTest
#     entry, the crash-state torture runs (label "torture") included — they
#     drive the DC-disk commit and recovery paths hardest. UBSan is built
#     non-recoverable, so a finding aborts its test.
#  2. TSan: configures build-tsan with -DFTX_SANITIZE=thread, builds it,
#     and runs every CTest entry outside the torture label. That set holds
#     every test that shards trials over a TrialPool (src/core/parallel)
#     and every --jobs determinism compare; a data race fails its test.
# Exits nonzero when a configure, a build or any test fails.
#
# Usage: scripts/check_sanitizers.sh
# Builds and tests with one job per core (the machine's memory is shared;
# do not raise it).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)

cmake -B build-asan -S . -DFTX_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure
echo "check_sanitizers: ASan+UBSan pass"

cmake -B build-tsan -S . -DFTX_SANITIZE=thread
cmake --build build-tsan -j "$JOBS"
ctest --test-dir build-tsan -j "$JOBS" -LE torture --output-on-failure
echo "check_sanitizers: TSan pass"
