"""Correctness checks on the outputs of one workload round.

Every check is one (name, passed) pair; the harness counts them as attempted
and failed.  Result files are read by column or field name and compared with
tolerances, so an added column or a last-bit change of a float is not a
failure.  The references come from ``reference.py``, not from ``qsobp``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from reference import critical_fixed_point, four_type_limit, heredity_tensors, two_type_limit

HEREDITY_TOL = 1e-12
DRIFT_TOL = 1e-12
SWEEP_TOL = 1e-9
HEREDITY_SAMPLE = 16
SWEEP_SAMPLE = 64


class Checks:
    """Accumulates named pass/fail results."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def add(self, name: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failures.append(name)


# ---------------------------------------------------------------------------
# Readers.
# ---------------------------------------------------------------------------


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path: str):
    with open(path, encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)


def _close(u: float, v: float, tol: float) -> bool:
    return abs(u - v) <= tol


# ---------------------------------------------------------------------------
# Per-workload checks.  Each takes the round's work directory, the inputs'
# expectations, the captured stdout of each command and a seeded generator.
# ---------------------------------------------------------------------------


def check_graph_operator(checks: Checks, workdir: str, expect: dict, stdout: list[str], rng):
    lines = stdout[0].splitlines()
    checks.add(
        "construct prints n, nu and connected/identity false",
        lines[:3] == [f"n={expect['n']} nu={expect['nu']}", "connected: false", "identity: false"],
    )
    op = _read_json(os.path.join(workdir, "op.json"))
    n, nu = expect["n"], expect["nu"]
    flat = rng.choice(n * nu, HEREDITY_SAMPLE, replace=False)
    pairs = [(int(p) // nu, int(p) % nu) for p in flat]
    pf, pm = heredity_tensors(expect["construction"])
    for i, k in pairs:
        checks.add(
            f"heredity row ({i},{k})",
            np.abs(np.asarray(op["pf"][i][k]) - pf[i, k]).max() <= HEREDITY_TOL
            and np.abs(np.asarray(op["pm"][i][k]) - pm[i, k]).max() <= HEREDITY_TOL,
        )
    for k in range(expect["starts"]):
        summary = _read_json(os.path.join(workdir, f"summary{k}.json"))
        drifts = summary["drifts"]
        checks.add(
            f"iterate {k} converged without drift",
            summary["converged"] is True
            and drifts["female_total"] <= DRIFT_TOL
            and drifts["male_total"] <= DRIFT_TOL,
        )
        last = None
        for last in _csv_rows(os.path.join(workdir, f"traj{k}.csv")):
            pass
        limit = summary["limit"]
        checks.add(
            f"trajectory {k} ends at the summary limit",
            last is not None
            and all(_close(float(last[f"x_{j + 1}"]), v, DRIFT_TOL) for j, v in enumerate(limit["female"]))
            and all(_close(float(last[f"y_{j + 1}"]), v, DRIFT_TOL) for j, v in enumerate(limit["male"])),
        )


def check_closed_form_verify(checks: Checks, workdir: str, expect: dict, stdout, rng):
    """Returns the largest reported mismatch."""
    worst = 0.0
    for name, grid in (("verify2.json", expect["grid2"]), ("verify4.json", expect["grid4"])):
        report = _read_json(os.path.join(workdir, name))
        cells = report["cells"]
        checks.add(f"{name} has grid^2 cells", len(cells) == grid * grid)
        for cell in cells:
            checks.add(f"{name} cell pass", cell["pass"] is True)
        worst = max(worst, report["max_mismatch"])
        if name == "verify4.json":
            checks.add(
                "four-type verify includes critical-line cells",
                any(cell["kind"] == "critical-line" for cell in cells),
            )
    regimes, in_box = set(), True
    for row in _csv_rows(os.path.join(workdir, "portrait.csv")):
        regimes.add(row["regime"])
        in_box = in_box and 0.0 <= float(row["x"]) <= 1.0 and 0.0 <= float(row["y"]) <= 1.0
    checks.add("portrait covers three regimes inside the box", regimes == {"below", "above", "critical"} and in_box)
    return worst


def _sample(path: str, rows: int, rng) -> tuple[int, bool, list[dict]]:
    """Row count, whether every status is ok, and a seeded sample of rows."""
    wanted = set(int(i) for i in rng.choice(rows, min(SWEEP_SAMPLE, rows), replace=False))
    count, all_ok, picked = 0, True, []
    for row in _csv_rows(path):
        all_ok = all_ok and row["status"] == "ok"
        if count in wanted:
            picked.append(row)
        count += 1
    return count, all_ok, picked


def check_closed_form_sweep(checks: Checks, workdir: str, expect: dict, stdout, rng):
    for name, rows in expect["rows"].items():
        count, all_ok, picked = _sample(os.path.join(workdir, name), rows, rng)
        checks.add(f"{name} has {rows} rows", count == rows)
        checks.add(f"{name} status ok on every row", all_ok)
        for row in picked:
            if row["status"] != "ok":
                checks.add(f"{name} row matches the reference", False)
                continue
            g = {k: float(v) for k, v in row.items() if k not in ("status", "class") and v != ""}
            if name == "sweep2.csv":
                lx, ly = two_type_limit(g["a"], g["b"], g["x0"], g["y0"])
                ok = _close(g["limit_x"], lx, SWEEP_TOL) and _close(g["limit_y"], ly, SWEEP_TOL)
                if abs(lx - 1.0) > SWEEP_TOL:
                    ok = ok and row["class"] == ("m1-extinct" if lx < 1.0 else "f2-extinct")
            elif name == "sweep4.csv":
                coords, label = four_type_limit(g["a"], g["b"], g["c"], g["d"], g["a0"], g["c0"])
                names = [f"limit_x{i}" for i in range(1, 5)] + [f"limit_y{i}" for i in range(1, 5)]
                ok = row["class"] == label and all(
                    _close(g[col], v, SWEEP_TOL) for col, v in zip(names, coords)
                )
            else:
                ref = critical_fixed_point(g["a"], g["a0"], g["c0"])
                affine = abs(2.0 * g["a"] - 1.0) <= 1e-12
                ok = _close(g["limit"], ref, SWEEP_TOL) and row["class"] == (
                    "affine" if affine else "quadratic"
                )
            checks.add(f"{name} row matches the reference", ok and all(map(math.isfinite, g.values())))


CHECKERS = {
    "graph-operator": check_graph_operator,
    "closed-form-verify": check_closed_form_verify,
    "closed-form-sweep": check_closed_form_sweep,
}
