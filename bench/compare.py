"""Compare two sets of benchmark records (parent commit against a change).

Records are the JSON lines that ``run.py --out`` appends.  For every
workload and metric both sides report, this prints each side's median and
quartiles, the ratio of the change's median to the parent's (the base), and
one verdict:

* ``better``: the change's median beats the parent's by more than the
  parent's own quartile spread, and the change wins at least nine tenths of
  the run pairs (paired by seed where both sides ran the same seeds).
* ``worse-beyond-bound``: the change's median is worse than the parent's by
  more than the metric's bound (end-to-end metrics); for per-layer metrics,
  which have no bound, ``worse`` mirrors the rule for ``better``.
* ``unresolved``: the parent's quartile spread is wider than the bound, so
  no-change cannot be told apart from a regression.
* ``within-bound``: none of the above; for per-layer metrics ``unchanged``
  when the medians are equal, else ``unresolved``.

``wall_s`` is corrected by a calibration kernel, which tracks the machine's
speed only in part.  When the two sides' median kernel times differ by more
than the bound, the machine ran at another speed for each side and the
verdict of ``wall_s`` is ``unresolved`` whatever the medians say.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path: str) -> tuple[dict, dict, dict]:
    """(workload, metric) -> [(seed, value)], [attempted, failed] per workload
    and the mean calibration kernel time of each run per workload."""
    values: dict = defaultdict(list)
    checks: dict = defaultdict(lambda: [0, 0])
    kernel: dict = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            prov, result = record["provenance"], record["result"]
            workload, seed = prov["workload"], prov["seed"]
            for name, metric in result["metrics"].items():
                values[(workload, name)].append((seed, metric["value"]))
            checks[workload][0] += result["attempted"]
            checks[workload][1] += result["failed"]
            if prov.get("calibration_s"):
                kernel[workload].append(statistics.fmean(prov["calibration_s"]))
    return values, checks, kernel


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _pairs(parent: list, change: list) -> list[tuple[float, float]]:
    """Runs paired by seed when both sides ran the same seeds, else in order."""
    by_seed = sorted(parent), sorted(change)
    if [s for s, _ in by_seed[0]] == [s for s, _ in by_seed[1]]:
        parent, change = by_seed
    return [(a, b) for (_, a), (_, b) in zip(parent, change)]


def verdict(parent: list, change: list, better: str, bound: float | None) -> str:
    p, c = [v for _, v in parent], [v for _, v in change]
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = _quartiles(p)
    spread = q3 - q1
    sign = 1.0 if better == "lower" else -1.0
    gain = sign * (pm - cm)  # > 0 when the change is better
    pairs = _pairs(parent, change)
    wins = sum(1 for a, b in pairs if sign * (a - b) > 0) / len(pairs)
    losses = sum(1 for a, b in pairs if sign * (a - b) < 0) / len(pairs)
    if bound is not None and -gain > bound * abs(pm):
        return "worse-beyond-bound"
    if gain > spread and wins >= 0.9:
        return "better"
    if bound is None and -gain > spread and losses >= 0.9:
        return "worse"
    if bound is not None and spread > bound * abs(pm):
        return "unresolved"
    if bound is not None:
        return "within-bound"
    return "unchanged" if gain == 0 else "unresolved"


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, parent_checks, parent_kernel = _load(parent_path)
    change, change_checks, change_kernel = _load(change_path)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        print(f"== {workload}")
        for side, checks in (("parent", parent_checks), ("change", change_checks)):
            attempted, failed = checks[workload]
            print(f"   {side} fail_frac {failed / max(attempted, 1):.3g} ({failed}/{attempted} checks)")
        speed_shift = None
        if parent_kernel[workload] and change_kernel[workload]:
            pk = statistics.median(parent_kernel[workload])
            ck = statistics.median(change_kernel[workload])
            speed_shift = abs(ck / pk - 1.0)
            print(f"   calibration kernel median: parent {pk:.4g} s, change {ck:.4g} s")
        for name, m in metrics.items():
            key = (workload, name)
            if key not in parent or key not in change:
                continue
            p, c = parent[key], change[key]
            pv, cv = [v for _, v in p], [v for _, v in c]
            pm, cm = statistics.median(pv), statistics.median(cv)
            pq, cq = _quartiles(pv), _quartiles(cv)
            ratio = f"{cm / pm:.4f}" if pm else "n/a"
            call = verdict(p, c, m["better"], m.get("bound"))
            if name == "wall_s" and speed_shift is not None and speed_shift > m["bound"]:
                call = "unresolved"
            print(
                f"   {name:42s} parent {pm:.6g} [{pq[0]:.6g}, {pq[1]:.6g}] n={len(p)}"
                f"  change {cm:.6g} [{cq[0]:.6g}, {cq[1]:.6g}] n={len(c)}"
                f"  ratio {ratio} (base {pm:.6g} {m['unit']})"
                f"  {call}"
            )
    return 0
