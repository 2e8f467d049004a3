// Package polymer is a Go reproduction of "NUMA-Aware Graph-Structured
// Analytics" (Zhang, Chen, Chen — PPoPP 2015): the Polymer graph-analytics
// engine, the Ligra / X-Stream / Galois baselines it is evaluated against,
// and a simulated cache-coherent NUMA machine calibrated to the paper's
// measured latency and bandwidth tables.
//
// The repository layout:
//
//   - internal/numa      — the simulated NUMA machine (topologies, cost model)
//   - internal/mem       — placement-aware arrays (co-located / interleaved / centralized)
//   - internal/graph     — dual-CSR immutable graphs and I/O
//   - internal/gen       — deterministic dataset generators (Table 2 stand-ins)
//   - internal/partition — vertex- and edge-balanced partitioning
//   - internal/barrier   — P/H/N barriers and the Figure 10(a) cost model
//   - internal/state     — adaptive per-node vertex subsets
//   - internal/core      — the Polymer engine (the paper's contribution)
//   - internal/engines   — the three baseline systems
//   - internal/algorithms— PR, SpMV, BP, BFS, CC, SSSP for every engine
//   - internal/bench     — regenerates every table and figure of Section 6
//
// The benchmarks in bench_test.go regenerate each experiment; the
// polymer experiments sub-command (cmd/polymer) prints them at full
// (Default) scale. See README.md, DESIGN.md and EXPERIMENTS.md.
package polymer
