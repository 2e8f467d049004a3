#!/usr/bin/env python3
"""Summarises the noise study (see noise.sh).

  noise_summary.py --join WORKLOAD SEED WALL_MS STDOUT STDERR   one run -> one JSON line
  noise_summary.py SET1.jsonl SET2.jsonl                the tables of NOISE.md

The spread of a metric is the distance between the first and third
quartile of its values over a set's runs, as statistics.quantiles(n=4)
gives them, as a share of their median: the driver's acceptance rule.
"""
import json
import math
import statistics
import sys


def join(workload, seed, wall_ms, stdout, stderr):
    row = {"workload": workload, "seed": int(seed), "wall_s": int(wall_ms) / 1000, "raw": {}}
    row.update(json.load(open(stdout)))
    for line in open(stderr):
        _, sep, rest = line.partition("benchmark: raw ")
        if sep:
            row["raw"].update(json.loads(rest))
    print(json.dumps(row))


def load(path):
    runs = {}
    for line in open(path):
        row = json.loads(line)
        assert row["correct"] and row["failed"] == 0, row
        runs.setdefault(row["workload"], []).append(row)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(path1, path2):
    bench = json.load(open("BENCHMARK.json"))
    sets = [load(path1), load(path2)]
    print("| workload | metric | bound | median 1 | median 2 | worse by | spread 1 | spread 2 | raw spread 1 | raw spread 2 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    worst_spread, worst_shift = {}, {}
    for w in (x["name"] for x in bench["workloads"]):
        for m in bench["end_to_end"]:
            name = m["name"]
            vals = [[r["metrics"][name]["value"] for r in s[w]] for s in sets]
            med = [statistics.median(v) for v in vals]
            worse = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            sp = [spread(v) for v in vals]
            raw = ["%.4f" % spread([r["raw"][name] for r in s[w]]) if name in s[w][0]["raw"] else "" for s in sets]
            print("| %s | %s | %.2f | %.6g | %.6g | %+.4f | %.4f | %.4f | %s | %s |" % (
                w, name, m["bound"], med[0], med[1], worse, sp[0], sp[1], raw[0], raw[1]))
            if name != "setup_s":  # the driver does not hold set-up to its spread
                worst_spread[name] = max(worst_spread.get(name, 0), *sp)
            worst_shift[name] = max(worst_shift.get(name, 0), worse)
    print()
    print("How the slice follows the ops: least-squares fit of log raw op_p50_ms on log cal_ms over both sets' runs.")
    print()
    print("| workload | runs | cal_ms | slope | r2 |")
    print("|---|---|---|---|---|")
    for w in (x["name"] for x in bench["workloads"]):
        runs = [r["raw"] for s in sets for r in s[w]]
        x = [math.log(r["cal_ms"]) for r in runs]
        y = [math.log(r["op_p50_ms"]) for r in runs]
        mx, my = statistics.mean(x), statistics.mean(y)
        sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx, syy = sum((a - mx) ** 2 for a in x), sum((b - my) ** 2 for b in y)
        print("| %s | %d | %.3f-%.3f | %.2f | %.2f |" % (
            w, len(runs), math.exp(min(x)), math.exp(max(x)), sxy / sxx, sxy * sxy / (sxx * syy)))
    print()
    print("| metric | bound | worst spread | bound / spread | worst set-to-set worsening | bound / worsening |")
    print("|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        name, b = m["name"], m["bound"]
        sp, sh = worst_spread.get(name, 0), worst_shift[name]
        print("| %s | %.2f | %s | %s | %.4f | %s |" % (
            name, b, "%.4f" % sp if sp else "", "%.1f" % (b / sp) if sp else "", sh, "%.1f" % (b / sh) if sh > 0 else ""))


if __name__ == "__main__":
    if sys.argv[1] == "--join":
        join(*sys.argv[2:7])
    else:
        main(sys.argv[1], sys.argv[2])
