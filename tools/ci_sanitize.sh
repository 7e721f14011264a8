#!/usr/bin/env bash
# Tier-1 verify under sanitizers.
#
#   tools/ci_sanitize.sh                  # asan suite (the historical default)
#   tools/ci_sanitize.sh --suite asan     # ASan+UBSan build, full test suite
#   tools/ci_sanitize.sh --suite tsan     # TSan build, the util thread-pool
#                                         # suite (the multithreaded surface
#                                         # worth racing)
#   tools/ci_sanitize.sh --suite all      # both, asan first
#
# Extra arguments after the suite selector are forwarded to ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

suite="asan"
if [[ "${1:-}" == "--suite" ]]; then
  suite="${2:?--suite needs an argument (asan|tsan|all)}"
  shift 2
fi

run_asan() {
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$(nproc)"

  # abort_on_error makes ASan failures kill the test immediately so ctest
  # reports them instead of a confusing pass-with-log.
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=0 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan -j "$(nproc)" --output-on-failure "$@"
}

run_tsan() {
  cmake --preset tsan
  # Only the binary with real multithreaded surface — building the whole
  # tree (benches, examples) under TSan buys nothing.
  cmake --build build-tsan -j "$(nproc)" --target test_util
  TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1 \
    ctest --preset tsan "$@"
}

case "$suite" in
  asan) run_asan "$@" ;;
  tsan) run_tsan "$@" ;;
  all)
    run_asan "$@"
    run_tsan "$@"
    ;;
  *)
    echo "unknown suite '$suite' (expected asan, tsan or all)" >&2
    exit 2
    ;;
esac
