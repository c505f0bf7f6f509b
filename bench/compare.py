"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 bench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by bench/run.py (by default
they land in bench/out/results/; move each commit's runs to a directory
of its own).  A row shows each side's median and quartiles over its runs
and the change of the median.  With a bound from BENCHMARK.json the row
gets a verdict: ``worse`` or ``better`` when the medians differ by more
than the bound, ``same`` when they do not, and ``unresolved`` when either
side's run-to-run spread (quartile distance over median) exceeds the
bound, unless every run after beats every run before.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory) -> dict:
    """{(workload, metric): [values]} over every result file in directory."""
    values: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        for name, m in rec.get("metrics", {}).items():
            values.setdefault((rec["workload"], name), []).append(m["value"])
    return values


def quartiles(values) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(before, after, bound, better) -> tuple:
    """(relative change of the median, verdict)."""
    b1, bm, b3 = quartiles(before)
    a1, am, a3 = quartiles(after)
    if bm == 0:
        return None, "same" if am == 0 else "unresolved"
    change = (am - bm) / abs(bm)
    if bound is None:
        return change, "-"
    sign = 1 if better == "lower" else -1
    worse = sign * change
    spread = max((b3 - b1) / abs(bm), (a3 - a1) / abs(am) if am else 0.0)
    if spread > bound:
        every_run_better = sign * max(after) < sign * min(before)
        return change, "better" if every_run_better else "unresolved"
    if worse > bound:
        return change, "worse"
    if worse < -bound:
        return change, "better"
    return change, "same"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args[0]), load(args[1])
    print(f"{'workload':10s} {'metric':42s} {'before q1/med/q3':>30s} "
          f"{'after q1/med/q3':>30s} {'change':>8s} verdict")
    for key in sorted(set(before) & set(after)):
        workload, name = key
        m = meta.get(name, {"better": "lower"})
        change, word = verdict(before[key], after[key], m.get("bound"), m["better"])
        cells = []
        for vals in (before[key], after[key]):
            q1, med, q3 = quartiles(vals)
            cells.append(f"{q1:.4g}/{med:.4g}/{q3:.4g} (n={len(vals)})")
        shown = "n/a" if change is None else f"{change:+.1%}"
        print(f"{workload:10s} {name:42s} {cells[0]:>30s} {cells[1]:>30s} {shown:>8s} {word}")
    for key in sorted(set(before) ^ set(after)):
        print(f"{key[0]:10s} {key[1]:42s} only in {'before' if key in before else 'after'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
