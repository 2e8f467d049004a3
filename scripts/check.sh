#!/bin/sh
# Repository health check: vet everything, then run the engine and
# runtime-state packages under the race detector. A phase runs on one
# goroutine and kernels, builders and chargers use plain loads and stores
# (internal/par), so the race pass is the proof that no second goroutine
# reaches them -- and that what several goroutines do share (serve,
# cluster, mutate, graph's memoised views and derived layouts, plan) is
# synchronised. The plain test pass covers the rest.
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

echo "==> go test -race -count=10 (shared runs: join, seal, detach and publish races)"
go test -race -count=10 -run 'Coalesce|Batch|Invalidation|Drain|Deadline|Disconnect|SharedLease' ./internal/serve/

echo "==> go test -race fault matrix (rollback/replay across all engines)"
go test -race -run 'TestFaultMatrix|TestPolymerDegraded|TestResilientRanks' .

echo "==> determinism gate (a run is a function of its input: same bits at any GOMAXPROCS, five times over)"
# Whole packages, every engine: re-run identity over the conform matrix,
# row/block kernels against the per-edge loops, fault replay, tracing,
# planned-vs-explicit, cached-vs-recomputed, all 24 clocks against the
# checked-in golden.
go test -count=5 -cpu 1,2,8 . ./cmd/simdump/ ./internal/conform/ ./internal/obs/ ./internal/plan/ ./internal/serve/
# The per-node charge against the per-thread loop it replaced, for one
# phase and over whole runs of shared and split rows.
go test -count=5 -cpu 1,2,8 -run 'TestChargeNodesMatchesPerThreadLoop|TestSharedRowsMatchPerThreadLedger' ./internal/numa/
# A snapshot patched from its predecessor against the whole-prefix fold:
# all six CSR arrays, at every read of a random mutation stream.
go test -count=5 -cpu 1,2,8 -run 'TestPatchMatchesFromEdges' ./internal/graph/
go test -count=5 -cpu 1,2,8 -run 'TestPatchedSnapshotEqualsCleanApply' ./internal/mutate/

echo "==> sweep and phase-fold benchmark smoke (host ns/edge of the shared sweep on both engines; ns per phase folded; one iteration a case)"
go test -run '^$' -bench BenchmarkSweepNsPerEdge -benchtime 1x ./internal/core/ >/dev/null
go test -run '^$' -bench BenchmarkPhaseFold -benchtime 1x ./internal/numa/ >/dev/null

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

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
