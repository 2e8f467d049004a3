#!/bin/sh
# Minimal errcheck: the resilience layer turned several formerly panicking
# APIs into error-returning ones (Alloc().Grow, par.Pool.Run, the engine
# New constructors, numa.NewMachineChecked). A call in bare statement
# position silently discards the error and defeats fault detection, so
# flag any such call outside tests. Intentional discards must be written
# as an explicit `_ =` or handled.
set -eu

cd "$(dirname "$0")/.."

# Bare statement calls: line starts with optional indentation, then the
# call itself, with no assignment, return, go, defer or if wrapping it.
pattern='^[[:space:]]*[a-zA-Z0-9_]+(\.[a-zA-Z0-9_]+(\(\))?)*\.(Grow|Run|RunCtx|RunConcurrent)\(|^[[:space:]]*(par\.NewPool|par\.NewNodePool|core\.New|ligra\.New|xstream\.New|galois\.New|numa\.NewMachineChecked)\('

bad=$(grep -rnE "$pattern" --include='*.go' cmd internal examples \
	| grep -v '_test\.go' \
	| grep -vE '(=|return|go |defer |if |for |switch |case |func )' \
	| grep -vE '\.Run\(func' \
	|| true)

if [ -n "$bad" ]; then
	echo "errcheck: discarded error from error-returning call:"
	echo "$bad"
	exit 1
fi
echo "errcheck: OK"
