"""Compare two sets of benchmark runs metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records `run.py --out FILE` appends, one per run.  For
every workload and end-to-end metric this prints each side's median and
quartiles with the run count, the change of the median, the bound from
BENCHMARK.json, and a verdict:

  better      NEW's median beats BASE's by more than BASE's quartile spread,
              and NEW wins at least nine tenths of all (BASE, NEW) run pairs
  worse       NEW's median is worse than BASE's by more than the bound
  unchanged   neither of the above, with both spreads within the bound
  unresolved  a side has fewer than MIN_RUNS runs, or a spread is wider
              than the bound, unless every NEW run beats (better) or loses
              to (worse) every BASE run
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_RUNS = 10


def load_runs(path: str) -> dict:
    """{workload: {metric: [values]}} over the untraced runs in a file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            metrics = runs.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, higher_is_better: bool, bound: float):
    """(verdict, relative change of the median, oriented so > 0 is better)."""
    sign = 1.0 if higher_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    gain = sign * (nm - bm) / bm
    spread_base = (b3 - b1) / bm
    spread_new = (n3 - n1) / nm
    wins = sum(sign * (n - b) > 0 for b in base for n in new)
    losses = sum(sign * (n - b) < 0 for b in base for n in new)
    pairs = len(base) * len(new)
    if min(len(base), len(new)) < MIN_RUNS:
        return "unresolved", gain
    if max(spread_base, spread_new) > bound:
        if wins == pairs:
            return "better", gain
        if losses == pairs:
            return "worse", gain
        return "unresolved", gain
    if gain > spread_base and wins >= 0.9 * pairs:
        return "better", gain
    if -gain > bound:
        return "worse", gain
    return "unchanged", gain


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two files of benchmark runs")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    base, new = load_runs(args.base), load_runs(args.new)
    print(f"{'workload':18s} {'metric':12s} {'base median [q1, q3] n':>34s} "
          f"{'new median [q1, q3] n':>34s} {'change':>8s} {'bound':>6s}  verdict")
    worse = False
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            b = base.get(name, {}).get(m["name"])
            n = new.get(name, {}).get(m["name"])
            if not b or not n:
                print(f"{name:18s} {m['name']:12s} missing in {'base' if not b else 'new'}")
                continue
            v, gain = verdict(b, n, m["better"] == "higher", m["bound"])
            worse |= v == "worse"

            def cell(vals):
                q1, med, q3 = quartiles(vals)
                return f"{med:.4g} [{q1:.4g}, {q3:.4g}] {len(vals)}"

            print(f"{name:18s} {m['name']:12s} {cell(b):>34s} {cell(n):>34s} "
                  f"{gain:+8.1%} {m['bound']:6.2f}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
