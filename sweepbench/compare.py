"""A/B verdicts between two result sets of the sweep benchmark.

    python3 sweepbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result documents ``run.py`` writes (its
``out/results``), from the parent commit and from the change, measured
on the same host with alternating order.  For every (end-to-end metric,
workload) pair this prints one verdict, by the rule of the
``choosing-metrics`` guide, section 8, with the bounds in
``BENCHMARK.json``:

* ``improved`` — at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither side), and the medians differ by more
  than the parent's own quartile spread;
* ``unresolved`` — the parent's spread (quartile distance over median)
  is wider than the bound, and not every change run beats every parent
  run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``no-worse`` — otherwise.

A gain does not count when more cells fail than at the parent: on a
workload where the change's documents report more failed cells than the
parent's, or any change document is not correct, every pair reads
``worse``.  Where only the parent has failed cells, every pair reads
``unresolved``.

Per-layer metrics from traced runs are listed with their median ratio
and no verdict: they explain a verdict, they do not make one.  Exit
status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Header fields that must agree for two sets to be comparable.
COMPARABLE = ("python", "numpy", "nproc", "repro_engine", "repro_snapshot")


def load(directory: Path) -> List[Dict]:
    docs = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    return sorted(docs, key=lambda d: d["header"].get("started_unix", 0))


def series(docs: List[Dict], workload: str, trace: int, metric: str
           ) -> List[float]:
    return [d["metrics"][metric] for d in docs
            if d["workload"] == workload and d["trace"] == trace
            and metric in d["metrics"]]


def failed(docs: List[Dict], workload: str) -> Tuple[int, int]:
    """Failed cells, and runs with any, over a workload's documents."""
    counts = [d["failed"] for d in docs if d["workload"] == workload]
    return sum(counts), sum(1 for n in counts if n)


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, int]:
    """The verdict, and how many of the pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(p: float, c: float) -> float:
        """Positive when the change reads better than the parent."""
        return sign * (p - c)

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    p_med, c_med = median(parent), median(change)
    if len(parent) >= 2:
        q1, _, q3 = quantiles(parent, n=4)
        parent_iqr = q3 - q1
    else:
        parent_iqr = float("inf")
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and gain(p_med, c_med) > parent_iqr):
        return "improved", wins
    all_better = all(gain(p, c) > 0 for p in parent for c in change)
    if spread(parent) > bound and not all_better:
        return "unresolved", wins
    if -gain(p_med, c_med) > bound * abs(p_med):
        return "worse", wins
    return "no-worse", wins


def _fmt(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}" if values else "-"
    q1, _, q3 = quantiles(values, n=4)
    return f"{median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    parent, change = load(args.parent), load(args.change)
    for field in COMPARABLE:
        seen = {str(d["header"].get(field)) for d in parent + change}
        if len(seen) > 1:
            print(f"warning: {field} differs across runs: {sorted(seen)}")
    for name, docs in (("parent", parent), ("change", change)):
        loads = [d["header"][k][0] for d in docs
                 for k in ("loadavg_before", "loadavg_after")]
        if loads:
            print(f"{name}: {len(docs)} runs, 1-min load "
                  f"{min(loads):.2f}..{max(loads):.2f}")
    worse = False
    print(f"\n{'workload':<12} {'metric':<14} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':>7}  verdict")
    for w in (x["name"] for x in bench["workloads"]):
        (p_failed, p_bad_runs), (c_failed, c_bad_runs) = (
            failed(parent, w), failed(change, w))
        if p_bad_runs or c_bad_runs:
            print(f"{w}: failed cells parent {p_failed} "
                  f"({p_bad_runs} runs), change {c_failed} "
                  f"({c_bad_runs} runs)")
        for m in bench["end_to_end"]:
            p = series(parent, w, 0, m["name"])
            c = series(change, w, 0, m["name"])
            if not p or not c:
                continue
            v, wins = verdict(p, c, m["better"], m["bound"])
            if c_bad_runs or c_failed > p_failed:
                v = "worse"
            elif p_bad_runs:
                v = "unresolved"
            worse |= v == "worse"
            print(f"{w:<12} {m['name']:<14} {_fmt(p):<30} {_fmt(c):<30} "
                  f"{wins:>3}/{min(len(p), len(c)):<3}  {v}")
    print(f"\n{'workload':<12} {'per-layer metric':<30} "
          f"{'parent':>12} {'change':>12} {'ratio':>7}")
    for w in (x["name"] for x in bench["workloads"]):
        for m in bench["per_layer"]:
            p = series(parent, w, 1, m["name"])
            c = series(change, w, 1, m["name"])
            if not p or not c or not (median(p) or median(c)):
                continue
            ratio = median(c) / median(p) if median(p) else float("inf")
            print(f"{w:<12} {m['name']:<30} {median(p):>12.5g} "
                  f"{median(c):>12.5g} {ratio:>7.3f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
