"""Compare result sets of the benchmark: one row per workload and metric.

Usage (from the repository root)::

    python3 perfbench/compare.py BEFORE            # spread of one set
    python3 perfbench/compare.py BEFORE AFTER      # verdict per metric

A result set is a ``.jsonl`` file or a directory of them, as ``run.py``
appends to ``perfbench/results/``; only untraced runs count.  For each
workload and end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles (``statistics.quantiles(values, n=4)``) and
their spread, the quartile distance as a share of the median.  With two
sets it adds the change of the median and a verdict against the metric's
bound:

* ``unresolved`` -- a side's spread exceeds the bound, unless every run of
  one side beats every run of the other;
* ``worse`` -- the median got worse by more than the bound;
* ``better`` -- the median improved by more than the first set's spread
  and at least nine in ten of all (first, second) run pairs favour the
  second set;
* ``within bound`` -- otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict:
    """workload -> metric -> values, over the untraced runs of a result set."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        for line in f.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["provenance"]
            if prov["trace"]:
                continue
            per = out.setdefault(prov["workload"], {})
            for name, m in rec["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def summary(values: list) -> tuple:
    """(median, q1, q3, spread) of a metric's runs."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(relative change of the median, verdict) of ``b`` against ``a``."""
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    delta = (med_b - med_a) / abs(med_a)
    worse_by = delta if better == "lower" else -delta

    def beats(x, y):
        return x < y if better == "lower" else x > y

    wins = sum(beats(y, x) for x in a for y in b) / (len(a) * len(b))
    losses = sum(beats(x, y) for x in a for y in b) / (len(a) * len(b))
    if max(spread_a, spread_b) > bound and max(wins, losses) < 1.0:
        return delta, "unresolved"
    if worse_by > bound:
        return delta, "worse"
    if -worse_by > spread_a and wins >= 0.9:
        return delta, "better"
    return delta, "within bound"


def _fmt(values: list) -> str:
    med, q1, q3, spread = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] {100 * spread:5.1f}% n={len(values)}"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load(Path(p)) for p in argv]
    for workload in sorted(set().union(*sets)):
        for m in metrics:
            name = m["name"]
            cols = [s.get(workload, {}).get(name) for s in sets]
            if any(c is None for c in cols):
                continue
            row = f"{workload:12s} {name:16s} {m['unit']:6s} " + " | ".join(
                _fmt(c) for c in cols
            )
            if len(cols) == 2:
                delta, v = verdict(cols[0], cols[1], m["better"], m["bound"])
                row += f" | {100 * delta:+6.1f}% bound {100 * m['bound']:.0f}% {v}"
            else:
                row += f" | bound {100 * m['bound']:.0f}%"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
