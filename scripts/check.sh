#!/bin/sh
# Repository health check: vet everything, then run the engine and
# runtime-state packages under the race detector. The race pass covers
# exactly the packages whose hot paths share scratch arenas across host
# workers; the plain test pass covers the rest.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l (everything outside benchmark/, which a perf PR may not touch)"
unformatted=$(gofmt -l . | grep -v '^benchmark/' || true)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "check: gofmt -w the files above" >&2
	exit 1
fi

echo "==> errcheck (error-returning APIs in statement position)"
sh scripts/errcheck.sh

echo "==> go test -race (engines, core, state, par, fault, numa, graph, serve, mutate, obs, conform, cluster, plan)"
go test -race \
	./internal/core/... \
	./internal/engines/... \
	./internal/state/... \
	./internal/par/... \
	./internal/fault/... \
	./internal/numa/... \
	./internal/graph/... \
	./internal/serve/... \
	./internal/mutate/... \
	./internal/obs/... \
	./internal/conform/... \
	./internal/cluster/... \
	./internal/plan/...

echo "==> go test -race fault matrix (rollback/replay across all engines)"
go test -race -run 'TestFaultMatrix|TestPolymerDegraded|TestResilientRanks' .

echo "==> determinism gate (node-owning host workers: same bits at any GOMAXPROCS)"
go test -count=5 -cpu 1,2,8 -run 'TestSimSecondsDeterministic' .
go test -count=5 -cpu 1,2,8 -run 'TestFaultReplayEquivalence/(polymer|xstream|galois)' ./internal/conform/
# The ligra case is gated at -cpu 1 only: with more than one host worker
# Ligra's push PageRank still sums floats in CAS order (about 1 run in 15
# drifts by an ULP) -- ROADMAP's determinism item (a) for the
# NUMA-oblivious engines. Fold it into the line above when that lands.
go test -count=5 -cpu 1 -run 'TestFaultReplayEquivalence/ligra' ./internal/conform/
# Row kernels against the per-edge loops (values, clock, stats, edges).
# The ligra cases compare values exactly only at -cpu 1, for the same
# reason and until the same ROADMAP item as the line above; the -race
# pass over ./internal/conform/ runs every case at the default -cpu.
go test -count=5 -cpu 1,2,8 -run 'TestRowKernelEquivalence/polymer' ./internal/conform/
go test -count=5 -cpu 1 -run 'TestRowKernelEquivalence/ligra' ./internal/conform/
# Pull rows against the per-edge pull loop: values at every -cpu; clock,
# stats and edges where the test compares them, on one host worker (cross-
# node claims are charged by CAS winner on either path, ROADMAP item b).
go test -count=5 -cpu 1,2,8 -run 'TestPullRowEquivalence/polymer' ./internal/conform/
go test -count=5 -cpu 1 -run 'TestPullRowEquivalence/ligra' ./internal/conform/
# X-Stream's block kernels against its per-edge loops: one thread gathers
# each tile, so the values are exact at any -cpu.
go test -count=5 -cpu 1,2,8 -run 'TestBlockKernelEquivalence' ./internal/conform/
# The simulated clock of all 24 cells against the checked-in golden (and
# plain/resilient parity; tier-1 runs it once too), and the per-node
# charge against the per-thread loop it replaced.
go test -count=5 -cpu 1,2,8 -run 'TestGolden' ./cmd/simdump/
go test -count=5 -cpu 1,2,8 -run 'TestChargeNodesMatchesPerThreadLoop' ./internal/numa/
# A snapshot patched from its predecessor against the whole-prefix fold:
# all six CSR arrays, at every read of a random mutation stream.
go test -count=5 -cpu 1,2,8 -run 'TestPatchMatchesFromEdges' ./internal/graph/
go test -count=5 -cpu 1,2,8 -run 'TestPatchedSnapshotEqualsCleanApply' ./internal/mutate/

echo "==> go test ./..."
go test ./...

echo "==> servebench smoke (reuse layer end to end, small schedule)"
go run ./cmd/servebench -requests 60 -clients 8 -queue 16 >/dev/null

echo "==> mutate soak smoke (crash-point matrix under -race, small seed budget)"
MUTATE_SOAK_SEEDS=4 go test -race -count=1 -run 'TestCrashRecoveryMatrix' ./internal/mutate/ >/dev/null

echo "==> cluster chaos smoke (fault matrix vs conform oracle under -race, small seed budget)"
CLUSTER_SOAK_SEEDS=2 go test -race -count=1 -run 'TestChaosMatrix' ./internal/cluster/ >/dev/null

echo "==> tier sweep smoke (hot vs interleave ordering gate + speedup baseline)"
go run ./cmd/numabench -tiersweep -graph powerlaw -scale tiny -sockets 4 -cores 2 \
	-tierbaseline BENCH_tiering.json >/dev/null

sh scripts/loc.sh

echo "check: OK"
