"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/report.py DIR
    python3 perfbench/report.py --compare BASE_DIR NEW_DIR

DIR holds the records that ``run.py --out DIR`` writes, one per run.
The first form prints, per workload and trace mode, every metric by
name with its unit: median, quartiles and spread (the distance between
the quartiles as a share of the median), and the output-check result of
every run.

The second form gives, per workload and per metric, one verdict:

* unresolved: the spread of either set exceeds the metric's bound, and
  not every new run beats every base run;
* worse: the new median is worse than the base median by more than the
  bound;
* better: the new median is better by more than both sets' spreads;
* within bound: otherwise.

Per-layer metrics have no bound; their spreads stand in for it.  No
combined score is computed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} from one result directory."""
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        key = (rec["env"]["workload"], rec["env"]["trace"])
        groups.setdefault(key, []).append(rec)
    return groups


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def series(records: list, name: str) -> list:
    return [r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]]


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {0: bench["end_to_end"], 1: bench["per_layer"]}


def verdict(base: list, new: list, better: str, bound: float | None) -> tuple:
    """(verdict, change as a share of the base median; positive is worse)."""
    mb, mn = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    if mb:
        change = sign * (mn - mb) / abs(mb)
    else:
        change = 0.0 if mn == mb else sign * (1.0 if mn > mb else -1.0) * float("inf")
    noise = max(spread(base), spread(new))
    wins = all(sign * (n - b) < 0 for n in new for b in base)
    limit = noise if bound is None else bound
    if bound is not None and noise > bound:
        return ("better" if wins else "unresolved"), change
    if change > limit:
        return "worse", change
    if -change > noise and change < 0:
        return "better", change
    return "within bound", change


def summarize(directory: str):
    metrics = declared()
    for (workload, trace), records in sorted(load(directory).items()):
        bad = [r for r in records if not r["result"]["correct"]]
        print(f"{workload} (trace {trace}, {len(records)} runs): "
              + ("every output matched" if not bad else f"{len(bad)} runs had failed operations"))
        for r in bad:
            for line in r["failures"][:5]:
                print(f"  FAILED seed {r['env']['seed']}: {line}")
        print(f"  {'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}")
        for m in metrics[trace]:
            values = series(records, m["name"])
            if values:
                q1, q2, q3 = quartiles(values)
                print(f"  {m['name']:28s} {m['unit']:6s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread(values):8.2%}")


def compare(base_dir: str, new_dir: str):
    metrics = declared()
    base, new = load(base_dir), load(new_dir)
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, {len(new[key])} new runs")
        for m in metrics[trace]:
            b, n = series(base[key], m["name"]), series(new[key], m["name"])
            if not b or not n:
                continue
            word, change = verdict(b, n, m["better"], m.get("bound"))
            bound = f"{m['bound']:.0%}" if "bound" in m else "-"
            print(f"  {m['name']:28s} {m['unit']:6s} {statistics.median(b):12.6g} -> "
                  f"{statistics.median(n):12.6g}  change {change:+8.2%}  spread "
                  f"{spread(b):6.2%}/{spread(n):6.2%}  bound {bound:>4s}  {word}")
    for key in sorted(set(base) ^ set(new)):
        print(f"{key[0]} (trace {key[1]}): only in one set, not compared")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dirs", nargs="+", metavar="DIR")
    ap.add_argument("--compare", action="store_true", help="compare BASE_DIR with NEW_DIR")
    args = ap.parse_args(argv)
    if args.compare:
        if len(args.dirs) != 2:
            ap.error("--compare takes exactly two directories")
        compare(*args.dirs)
    else:
        for d in args.dirs:
            summarize(d)
    return 0


if __name__ == "__main__":
    sys.exit(main())
