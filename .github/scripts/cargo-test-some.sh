#!/usr/bin/env bash
# `cargo test ARGS...`, failing unless at least one test ran and passed.
# A name filter that matches nothing — a test renamed or deleted — is
# otherwise a green "running 0 tests".
#
#   .github/scripts/cargo-test-some.sh --release -q -p graphmat-sparse parallel
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
if ! grep -qE 'test result: ok\. [1-9][0-9]* passed' "$out"; then
    echo "cargo test $*: no test ran"
    exit 1
fi
