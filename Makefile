GO ?= go

.PHONY: build test check trace conform conform-nightly mutate-soak plan plan-sweep

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full health check: vet + errcheck + race-detector pass over the engine
# and runtime packages (a phase runs on one goroutine; the pass proves no
# second one reaches its plain loads and stores) + the fault-injection
# matrix under -race + the determinism gate (-count=5 -cpu 1,2,8 over the
# root, conform, obs, plan and serve packages and the dump and tier sweep
# goldens) + the full suite with -shuffle=on.
check:
	sh scripts/check.sh

# Quick conformance tier: the cross-engine differential/metamorphic/
# invariant suite plus a small CLI sweep. Runs on every push.
conform:
	$(GO) test ./internal/conform/...
	$(GO) run ./cmd/polymer conform -seed 1 -graphs 4

# Nightly conformance tier: the suite under the race detector plus a
# deep seeded sweep. On divergence the CLI writes conform-repro.el, a
# minimal loadable failing graph.
conform-nightly:
	$(GO) test -race -count=2 ./internal/conform/...
	$(GO) run ./cmd/polymer conform -seed $${CONFORM_SEED:-1} -graphs 32 -out conform-repro.el

# Crash-recovery soak: the full crash-point injection matrix under -race
# with an enlarged seed budget (MUTATE_SOAK_SEEDS trials per point,
# default 3 in plain test runs). Every trial kills the store at an
# injected point, tears the log tail to a seeded offset, recovers, and
# verifies the snapshot bit-identically against a clean-apply oracle.
mutate-soak:
	MUTATE_SOAK_SEEDS=$${MUTATE_SOAK_SEEDS:-16} $(GO) test -race -count=1 \
		-run 'TestCrashRecoveryMatrix' ./internal/mutate/

# Planner demo: profile a graph, print the full scored decision table,
# and run the pick. -system auto hands the choice to the cost model.
plan:
	$(GO) run ./cmd/polymer -algo pr -graph powerlaw -scale small -system auto -plan

# Planner-vs-oracle sweep: every corpus (graph, algorithm) cell runs
# every candidate for real; prints the cold and the learned sweep and
# writes their per-cell and per-candidate CSVs, which nightly CI uploads.
# The 10% cost-regret gate is tier-1's TestFullCorpusCostRegretGate.
plan-sweep:
	$(GO) run ./cmd/polymer experiments -exp plan -csv plan-sweep

# Traced PageRank run: per-superstep breakdown on stdout, Chrome trace
# JSON in trace.json (open in https://ui.perfetto.dev or chrome://tracing).
trace:
	$(GO) run ./cmd/polymer -algo pr -graph powerlaw -scale small -trace trace.json -breakdown
