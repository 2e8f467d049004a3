#!/usr/bin/env bash
# A/B referee for one benchmark workload: runs benchmark/run.sh from two
# refs in alternating pairs and reports, per end-to-end metric, each
# side's median and quartiles, how many pairs B won, and whether the
# simulated-clock metrics are identical to the last printed digit.
#
#   scripts/ab.sh <refA> <refB> <workload> [pairs=10]
#   SEED=11 scripts/ab.sh HEAD~1 HEAD engine-sparse
#   scripts/ab.sh HEAD "$(git stash create)" engine-sparse 3   # uncommitted work
#
# Each ref is exported (git archive) into a throw-away directory, so the
# benchmark is built from exactly the committed files of that ref, with
# its own build cache, and nothing is left behind. Pairs alternate which
# side runs first (A B, B A, A B, ...): slow drift of the box lands on
# both sides. SEED (default 7) is the benchmark's --seed; pick one the
# change was not developed against. Run length is BENCHMARK.json's
# run_seconds, the same on both sides.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
	exit 2
fi
refA=$1 refB=$2 workload=$3 pairs=${4:-10}
seed=${SEED:-7}

cd "$(git rev-parse --show-toplevel)"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for side in A B; do
	ref=refA; [ "$side" = B ] && ref=refB
	mkdir "$tmp/$side"
	git archive "${!ref}" | tar -x -C "$tmp/$side"
done

# run <side> <pair>: one benchmark process; its last stdout line is the
# result object.
run() {
	(cd "$tmp/$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
		2>"$tmp/$1.$2.err" | tail -n 1 >"$tmp/$1.$2.json" ||
		{ echo "ab: $1 failed on pair $2:" >&2; tail -n 5 "$tmp/$1.$2.err" >&2; exit 1; }
}

echo "ab: A=$refA B=$refB workload=$workload seed=$seed seconds=$seconds pairs=$pairs" >&2
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
	for side in $order; do
		run "$side" "$i"
	done
	echo "ab: pair $i/$pairs done ($order)" >&2
done

python3 - "$tmp" "$pairs" "$workload" <<'EOF'
import json, statistics, sys

tmp, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
runs = {s: [json.load(open(f"{tmp}/{s}.{i}.json")) for i in range(1, pairs + 1)] for s in "AB"}
for s in "AB":
    bad = [i + 1 for i, r in enumerate(runs[s]) if not r["correct"] or r["failed"]]
    if bad:
        print(f"ab: side {s} reported failed or incorrect ops in pairs {bad}")

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]

print(f"{workload}: median [q1 .. q3] over {pairs} pairs; 'B wins' counts pairs where B is strictly better")
print(f"{'metric':<22} {'A':>40} {'B':>40} {'B/A':>7}  B wins")
identical = True
for m in bench["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in runs["A"]]
    b = [r["metrics"][name]["value"] for r in runs["B"]]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    ratio = f"{b2 / a2:7.3f}" if a2 else "    n/a"
    cell = lambda lo, mid, hi: f"{mid:.6g} [{lo:.6g} .. {hi:.6g}]"
    print(f"{name:<22} {cell(a1, a2, a3):>40} {cell(b1, b2, b3):>40} {ratio}  {wins}/{pairs}" + (f" ({ties} ties)" if ties else ""))
    if name.startswith("sim_"):
        # repr() round-trips a float64: equal strings are equal to the last digit.
        same = len({repr(v) for v in a + b}) == 1
        identical &= same
        print(f"{'':<22} {'identical on every run of both sides' if same else 'DIFFERS: A ' + repr(a[0]) + ' B ' + repr(b[0])}")
print("sim_* identical:", "yes" if identical else "NO")
EOF
