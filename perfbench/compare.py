"""Compare two sets of untraced benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (they land in
perfbench/_work/results/; copy them aside between commits). For every
workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the change in the median as a share of the base, the
metric's bound, how many seed-paired runs the change won, and a verdict:

- regression: the median is worse than the base by more than the bound;
- gain: the change won at least 9 in 10 pairs and the medians differ by more
  than the base's own quartile spread;
- unresolved: the base's spread is wider than the bound;
- no change: none of the above.

It refuses to compare results whose machine facts differ.
"""

import json
import statistics
import sys
from pathlib import Path

from run import COMPARABLE_FACTS, ROOT


def load(directory) -> list[dict]:
    recs = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    return [r for r in recs if r["trace"] == 0]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound, wins, pairs) -> str:
    b1, bm, b3 = quartiles(base)
    cm = statistics.median(change)
    worse = (cm - bm) / bm if better == "lower" else (bm - cm) / bm
    if worse > bound:
        return "regression"
    if pairs and wins >= 0.9 * pairs and abs(cm - bm) > b3 - b1:
        return "gain"
    beats_all = (max(change) < min(base)) if better == "lower" else (min(change) > max(base))
    if (b3 - b1) / bm > bound and not beats_all:
        return "unresolved"
    return "no change"


def _fmt(median, q1, q3) -> str:
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    if not base or not change:
        print("error: no untraced result files in one of the directories", file=sys.stderr)
        return 2
    facts = {json.dumps({k: r["facts"][k] for k in COMPARABLE_FACTS}, sort_keys=True)
             for r in base + change}
    if len(facts) != 1:
        print("refusing to compare: the machine facts differ between results:",
              *sorted(facts), sep="\n", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{'workload':<20} {'metric':<14} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'delta':>8} {'bound':>6} {'wins':>6}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            name = m["name"]
            a = {r["seed"]: r["metrics"][name]["value"] for r in base if r["workload"] == wl}
            b = {r["seed"]: r["metrics"][name]["value"] for r in change if r["workload"] == wl}
            if not a or not b:
                continue
            seeds = sorted(set(a) & set(b))
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
            av, bv = list(a.values()), list(b.values())
            a1, am, a3 = quartiles(av)
            b1, bm, b3 = quartiles(bv)
            print(f"{wl:<20} {name:<14} {_fmt(am, a1, a3):>30} {_fmt(bm, b1, b3):>30} "
                  f"{100 * (bm - am) / am:>+7.2f}% {m['bound']:>6} {wins:>2}/{len(seeds):<3}  "
                  + verdict(av, bv, m["better"], m["bound"], wins, len(seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
