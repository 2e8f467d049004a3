GO ?= go

.PHONY: build test check bench-serving trace conform conform-nightly mutate-soak cluster-soak cluster-sweep plan plan-sweep tier-sweep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full health check: vet + errcheck + race-detector pass over the engine
# and runtime packages (a phase runs on one goroutine; the pass proves no
# second one reaches its plain loads and stores) + the fault-injection
# matrix under -race + the determinism gate (-count=5 -cpu 1,2,8 over the
# root, simdump, conform, obs, plan and serve packages) + the full suite
# with -shuffle=on.
check:
	sh scripts/check.sh

# Quick conformance tier: the cross-engine differential/metamorphic/
# invariant suite plus a small CLI sweep. Runs on every push.
conform:
	$(GO) test ./internal/conform/...
	$(GO) run ./cmd/conform -seed 1 -graphs 4

# Nightly conformance tier: the suite under the race detector plus a
# deep seeded sweep. On divergence the CLI writes conform-repro.el, a
# minimal loadable failing graph.
conform-nightly:
	$(GO) test -race -count=2 ./internal/conform/...
	$(GO) run ./cmd/conform -seed $${CONFORM_SEED:-1} -graphs 32 -out conform-repro.el

# Crash-recovery soak: the full crash-point injection matrix under -race
# with an enlarged seed budget (MUTATE_SOAK_SEEDS trials per point,
# default 3 in plain test runs). Every trial kills the store at an
# injected point, tears the log tail to a seeded offset, recovers, and
# verifies the snapshot bit-identically against a clean-apply oracle.
mutate-soak:
	MUTATE_SOAK_SEEDS=$${MUTATE_SOAK_SEEDS:-16} $(GO) test -race -count=1 \
		-run 'TestCrashRecoveryMatrix' ./internal/mutate/

# Cluster chaos soak: the {machine crash, link partition, slow replica,
# crash-during-failover} matrix under -race with an enlarged seed budget
# (CLUSTER_SOAK_SEEDS per kind, default 4 in plain test runs). Every cell
# asserts the committed output is bit-identical to the single-machine
# conform oracle; failing cells append a minimized repro line to
# CLUSTER_REPRO_FILE when set.
cluster-soak:
	CLUSTER_SOAK_SEEDS=$${CLUSTER_SOAK_SEEDS:-8} $(GO) test -race -count=1 \
		-run 'TestChaosMatrix' ./internal/cluster/

# Figure-4 lifted to the cluster: the scaling sweep at gen.Huge (4x the
# single-box evaluation size) across 1..8 machines, with the per-link
# and per-hop traffic evidence from each kernel's largest run.
cluster-sweep:
	$(GO) run ./cmd/numabench -machines 1,2,4,8 -graph powerlaw -scale huge

# Serving-layer benchmark: the same duplicate-heavy Zipf schedule against
# a server with the execution-reuse layer (shared runs + result cache)
# off and on. Writes BENCH_serving.json and gates on the checked-in
# machine-independent goodput ratio.
bench-serving:
	$(GO) run ./cmd/servebench -baseline BENCH_serving.json -out BENCH_serving_current.json

# Planner demo: profile a graph, print the full scored decision table,
# and run the pick. -system auto hands the choice to the cost model.
plan:
	$(GO) run ./cmd/polymer -algo pr -graph powerlaw -scale small -system auto -plan

# Planner-vs-oracle sweep: every corpus (graph, algorithm) cell runs
# every candidate for real; gates on cost-weighted regret <= 10% and
# writes the per-cell artifact nightly CI uploads.
plan-sweep:
	$(GO) run ./cmd/planbench -cores 2 -rows -o planner-regret.json -gate 0.10

# Tiered-memory DRAM-fraction sweep: the flagship engine under shrinking
# DRAM budgets, hot-vertex placement vs naive interleave, gated on hot
# beating interleave at <=50% DRAM and on the checked-in speedup
# baseline (BENCH_tiering.json, 20% regression budget).
tier-sweep:
	$(GO) run ./cmd/numabench -tiersweep -graph powerlaw -scale tiny \
		-sockets 4 -cores 2 -tierout BENCH_tiering_current.json \
		-tierbaseline BENCH_tiering.json

# Traced PageRank run: per-superstep breakdown on stdout, Chrome trace
# JSON in trace.json (open in https://ui.perfetto.dev or chrome://tracing).
trace:
	$(GO) run ./cmd/polymer -algo pr -graph powerlaw -scale small -trace trace.json -breakdown
