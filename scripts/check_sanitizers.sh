#!/usr/bin/env bash
# ASan+UBSan gate: configures the sanitized build tree build-asan with
# -DFTX_SANITIZE=address,undefined, builds it, and runs every CTest entry,
# the crash-state torture runs (label "torture") included — they drive the
# DC-disk commit and recovery paths hardest. UBSan is built
# non-recoverable, so a finding aborts its test. Exits nonzero when the
# configure, the build or any test fails.
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
