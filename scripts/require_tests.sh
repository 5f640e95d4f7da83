#!/usr/bin/env bash
# Fails unless PATTERN names at least one test, benchmark or fuzz target in
# every listed package. `go test -run X` and `go test -bench X` exit 0 with
# "[no tests to run]" when X matches nothing, so a CI step that runs a
# named pattern checks it with this first — a rename then breaks the step
# instead of silently emptying it.
#
#   ./scripts/require_tests.sh 'TestFoo|TestBar' ./internal/pkg ./internal/other
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 PATTERN PKG..." >&2
	exit 2
fi
pattern=$1
shift
for pkg in "$@"; do
	list=$(go test -list "$pattern" "$pkg")
	if ! grep -Eq '^(Test|Benchmark|Fuzz|Example)' <<<"$list"; then
		echo "pattern '$pattern' matches nothing in $pkg" >&2
		exit 1
	fi
done
