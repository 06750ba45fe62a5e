#!/bin/sh
# Usage: gtest_filtered.sh TEST_BINARY FILTER [GTEST_ARGS...]
#
# Runs TEST_BINARY with --gtest_filter=FILTER and the remaining arguments,
# but first fails when FILTER selects no test: a filter that silently
# matches nothing (a renamed suite, a missing instantiation prefix) would
# otherwise pass. gtest 1.11 has no fail-if-no-test flag, so the selected
# tests are counted from --gtest_list_tests, where each test is a line
# indented under its suite.
set -eu
Binary=$1
Filter=$2
shift 2
Count=$("$Binary" --gtest_filter="$Filter" --gtest_list_tests | grep -c '^  ' || true)
if [ "$Count" -eq 0 ]; then
  echo "error: --gtest_filter='$Filter' selects no test in $Binary" >&2
  exit 1
fi
echo "$Binary: --gtest_filter='$Filter' selects $Count tests"
exec "$Binary" --gtest_filter="$Filter" "$@"
