#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails when no test ran: a name filter that
# matches nothing (a renamed test, a typo in the filter) otherwise passes
# silently with "0 passed".
set -eo pipefail
cargo test "$@" 2>&1 | tee /dev/stderr | awk -v args="$*" '
    /^test result:/ { ran += $4 }
    END { if (ran == 0) { print "no test ran for: cargo test " args; exit 1 } }'
