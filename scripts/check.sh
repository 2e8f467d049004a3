#!/bin/sh
# Repository health check: vet everything, then run the engine and
# runtime-state packages under the race detector. A phase runs on one
# goroutine and kernels, builders and chargers use plain loads and stores
# (internal/par), so the race pass is the proof that no second goroutine
# reaches them -- and that what several goroutines do share (serve,
# mutate, graph's memoised views and derived layouts, plan) is
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

echo "==> go test -race (engines, core, state, par, fault, numa, graph, serve, mutate, obs, conform, plan)"
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
	./internal/plan/...

echo "==> go test -race -count=10 (shared runs: join, seal, detach and publish races; concurrent runs answer as a lone one does; warm runs through the one attempt, one racing a commit; a prior read while its entry is replaced)"
go test -race -count=10 -run 'Coalesce|Batch|Invalidation|Drain|Deadline|Disconnect|AFunctionOfTheBody|PriorReadOutlivesItsEntry|Warm' ./internal/serve/

echo "==> go test -race -count=5 (concurrent reads of a fresh successor: one layout patch, shared)"
go test -race -count=5 -run 'TestConcurrentReadsShareSnapshotLayouts' ./internal/serve/

echo "==> go test -race fault matrix (rollback/replay across all engines)"
go test -race -run 'TestFaultMatrix|TestResilientRanks' .

echo "==> determinism gate (a run is a function of its input: same bits at any GOMAXPROCS, five times over)"
# Whole packages, every engine: re-run identity over the conform matrix,
# row kernels against the per-edge loops, X-Stream against its recorded
# digests, fault replay, tracing,
# planned-vs-explicit, cached-vs-recomputed, and the bytes a PageRank
# rerun allocates on a reused engine (TestPRRerunAllocs).
go test -count=5 -cpu 1,2,8 . ./internal/conform/ ./internal/obs/ ./internal/plan/ ./internal/serve/
# The per-node charge against the per-thread loop it replaced, for one
# phase and over whole runs of shared and split rows.
go test -count=5 -cpu 1,2,8 -run 'TestChargeNodesMatchesPerThreadLoop|TestSharedRowsMatchPerThreadLedger' ./internal/numa/
# A snapshot patched from its predecessor against the whole-prefix fold:
# all six CSR arrays, at every read of a random mutation stream.
go test -count=5 -cpu 1,2,8 -run 'TestPatchMatchesFromEdges' ./internal/graph/
go test -count=5 -cpu 1,2,8 -run 'TestPatchedSnapshotEqualsCleanApply' ./internal/mutate/
# A layout patched from its predecessor's against buildLayout on the
# patched snapshot, chunk for chunk: every part's arrays, the agent index
# and agent bytes; and the bytes one serving commit's patch allocates,
# against its bounds (pull 10 %, push 10 % of a whole copy).
go test -count=5 -cpu 1,2,8 -run 'TestLayoutPatchMatchesBuild|TestLayoutPatchAllocation' ./internal/core/
# The push and pull segment forms (push by row or by edge with a row
# cursor, CC and SSSP pull by edge, BFS pull by row) against the per-edge
# loops: random and fixed segments, with and without IDs, under full,
# empty and sparse leaves.
go test -count=5 -cpu 1,2,8 -run 'TestPushRowMatchesUpdateLoop|TestPullRowMatchesUpdateLoop' ./internal/algorithms/
# Warm runs against cold ones, bit for bit: BFS and SSSP on Polymer and
# Ligra repaired from every earlier snapshot's answer of random batch
# streams, twenty times over.
go test -count=20 -cpu 1,2,8 -run 'TestWarmDifferential|TestWarmVanishingWeights' ./internal/conform/
# All 24 clocks of the dump and every clock and slow rate of the
# tiered-memory sweep against their goldens; every unweighted cell polymerd
# serves on a weighted base's view against the same cell on an unweighted
# load.
go test -count=5 -cpu 1,2,8 -run 'TestGolden|TestTierSweepGolden|TestUnweightedViewRunsLikeUnweightedLoad' ./internal/bench/

echo "==> sweep, segment-shape, X-Stream iteration and traversal, sparse-BFS, layout-patch, phase-fold, cold-decision and R-MAT benchmark smoke (host ns/edge of the shared sweep on both engines, of both segment loop shapes and of an X-Stream PageRank iteration; ns per X-Stream BFS, SSSP and CC; ns per road-grid BFS; one 32-op layout patch; ns per phase folded; one planner decision; engine-dense's RMAT(15,16) input; one iteration a case)"
go test -run '^$' -bench BenchmarkSweepNsPerEdge -benchtime 1x ./internal/core/ >/dev/null
go test -run '^$' -bench BenchmarkSegmentShape -benchtime 1x ./internal/algorithms/ >/dev/null
go test -run '^$' -bench BenchmarkXStreamIterate -benchtime 1x ./internal/algorithms/ >/dev/null
go test -run '^$' -bench BenchmarkXStreamTraversal -benchtime 1x ./internal/algorithms/ >/dev/null
go test -run '^$' -bench BenchmarkLayoutPatch -benchtime 1x ./internal/core/ >/dev/null
go test -run '^$' -bench BenchmarkSparseBFS -benchtime 1x ./internal/core/ >/dev/null
go test -run '^$' -bench BenchmarkPhaseFold -benchtime 1x ./internal/numa/ >/dev/null
go test -run '^$' -bench BenchmarkResolveCold -benchtime 1x ./internal/plan/ >/dev/null
go test -run '^$' -bench BenchmarkRMAT -benchtime 1x ./internal/gen/ >/dev/null

echo "==> go test -shuffle=on ./..."
go test -shuffle=on ./...

echo "==> mutate soak smoke (crash-point matrix under -race, small seed budget)"
MUTATE_SOAK_SEEDS=4 go test -race -count=1 -run 'TestCrashRecoveryMatrix' ./internal/mutate/ >/dev/null

echo "==> experiments smoke (the ids beyond the paper: tier sweep and its ordering gate, planner profiles, planner vs oracle)"
go run ./cmd/polymer experiments -scale tiny -exp tier,profile,plan >/dev/null

echo "==> dump through the sub-command dispatcher, byte for byte against the tiny golden"
go run ./cmd/polymer dump -scale tiny | cmp - internal/bench/testdata/tiny.golden

sh scripts/loc.sh

echo "check: OK"
