#!/usr/bin/env bash
# Reproduces NOISE.md: what the end-to-end metrics do when nothing changes.
# Two studies of one commit, every workload untraced, two sets each:
#   seeds  ten runs a set, seeds 1-10 (the driver's acceptance statistic)
#   same   five runs a set, all of seed 1 (the machine's share of the above)
# then per-metric spreads and set-to-set differences. Takes about an hour;
# run it on an otherwise idle box.
#
#   bash benchmark/noise.sh [output-dir] [workloads]
set -euo pipefail
dir="${1:-benchmark/noise}"
workloads="${2:-engine-dense engine-sparse serve-hot serve-churn}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$dir"
for study in seeds same; do
  for set in 1 2; do
    out="$dir/$study-set$set.jsonl"
    : > "$out"
    for i in $(seq 1 $([ $study = seeds ] && echo 10 || echo 5)); do
      seed=$([ $study = seeds ] && echo "$i" || echo 1)
      for w in $workloads; do
        start="$(date +%s%N)"
        bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
          2> "$dir/stderr.tmp" | tail -n 1 > "$dir/stdout.tmp"
        wall_ms="$(( ($(date +%s%N) - start) / 1000000 ))"
        python3 benchmark/noise_summary.py --join "$w" "$seed" "$wall_ms" "$dir/stdout.tmp" "$dir/stderr.tmp" >> "$out"
      done
    done
  done
done
rm -f "$dir/stdout.tmp" "$dir/stderr.tmp"
for study in seeds same; do
  echo "## $study"
  python3 benchmark/noise_summary.py "$dir/$study-set1.jsonl" "$dir/$study-set2.jsonl"
done
