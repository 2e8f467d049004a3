#!/bin/sh
# The two figures every simplicity PR quotes: Go lines outside benchmark/
# (and outside the benchmark's build directory), non-test and test.
set -eu

cd "$(dirname "$0")/.."

count() {
	find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*' "$@" -print0 |
		xargs -0 cat | wc -l | tr -d ' '
}

echo "loc: $(count -not -name '*_test.go') non-test, $(count -name '*_test.go') test Go lines outside benchmark/"
