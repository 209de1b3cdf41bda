"""Command-line surface: construct, iterate, fixed-points, classify, predict, verify, sweep.

Machine-readable outputs: trajectories and sweeps go to CSV, summaries and
reports to JSON with sorted keys, so identical invocations produce
byte-identical files.  Exit codes: 0 = ran (including non-convergence),
2 = input error, 3 = I/O error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from array import array
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import construction, dynamics, four_types, two_types
from .errors import QsobpError, SchemaError
from .simplex import PopulationState, Tolerance, block_totals, make_state

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

# Report-level agreement threshold between iterated and predicted limits.
DEFAULT_MATCH_EPS = 1e-6


# ---------------------------------------------------------------------------
# Small helpers.
# ---------------------------------------------------------------------------


def _tolerance(args) -> Tolerance:
    """The command's tolerance flags; ``Tolerance``'s defaults for the fields it has no flag for."""
    return Tolerance(**{f.name: getattr(args, f.name) for f in fields(Tolerance) if f.name in args})


def _parse_numbers(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise SchemaError("state", f"cannot parse {text!r} as comma-separated numbers") from None


def _parse_full_state(text: str) -> PopulationState:
    """Parse 'x1,..,xn;y1,..,ynu' into a population state."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SchemaError("state", "expected 'females;males' with a single ';'")
    return make_state(_parse_numbers(parts[0]), _parse_numbers(parts[1]))


def _parse_point(text: str) -> tuple[float, float]:
    values = _parse_numbers(text)
    if len(values) != 2:
        raise SchemaError("state", f"expected two coordinates, got {len(values)}")
    return (values[0], values[1])


def _parse_range(text: str) -> list[float]:
    """A single value, or an inclusive range 'lo:hi:count'."""
    if ":" not in text:
        return [float(text)]
    pieces = text.split(":")
    if len(pieces) != 3:
        raise SchemaError("range", f"expected 'lo:hi:count', got {text!r}")
    lo, hi, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
    if count < 0:
        raise SchemaError("range", "count must be >= 0")
    return _linspace(lo, hi, count)


def _write_json(doc: dict, path: str | None) -> None:
    """Write ``doc``; ``ValueError``, before anything is written, on NaN or infinity."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_trajectory(path: str, header: Sequence[str], steps, states) -> None:
    """The bytes ``_write_csv`` writes for the rows ``[step, *state]``.

    A row holds an int and floats, which ``csv`` writes as ``str`` and
    ``repr`` and never quotes, so each row is one join.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(
            f"{t}," + ",".join(map(float.__repr__, s)) + "\r\n" for t, s in zip(steps, states)
        )


def _state_doc(state: PopulationState) -> dict:
    return {"female": list(state.female.probs), "male": list(state.male.probs)}


# ---------------------------------------------------------------------------
# The cases: per-case parts of predict, verify and sweep.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """The per-case parts of predict, verify and sweep.

    A start is what the case's predictor takes: a point, a population state
    or a scalar.  ``coords`` flattens a start or a limit into the coordinate
    tuple that ``params.step`` iterates and that sweep rows hold.  Predictors
    are looked up in their module at call time, so a wrapped module
    attribute sees every call.
    """

    params: type  # its fields are the case's parameter names, in sweep-column order
    parse_start: Callable[[str], object]  # raises ValueError for a start outside the domain
    predict: Callable  # (params, start, tolerance) -> closed-form limit
    label: Callable  # (params, limit) -> class label
    doc: Callable  # (start, limit) -> the start and limit fields of the predict document
    sweep_columns: tuple[tuple[str, ...], tuple[str, ...]]  # start and limit columns
    start_flag: str = "state"
    coords: Callable[[object], tuple] = tuple
    grid_starts: Callable[[int], list] | None = None  # sweep starts for 'grid:N'
    fixes: Callable[[object], dict] = lambda start: {}  # parameters a start determines
    sample: Callable | None = None  # (params, rng) -> one random verify start
    verify_axes: tuple[str, str] = ("a", "c")
    on_line: Callable[[object], bool] = lambda p: False  # verify names the cell critical-line
    planar: Callable | None = None  # params -> (planar map, its Jacobian, (w, h) of [0,w] x [0,h])
    portrait: tuple = ()  # (regime, parameter overrides) of each verify portrait regime

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params))


def _param_values(case_name: str, args, fixed=()) -> dict:
    """Each case parameter the command has a flag for and the start does not fix:
    the flag's value, or the default when not given.  A ``SchemaError`` names any
    other parameter flag that was given."""
    names = CASES[case_name].names
    for name in args.param_defaults:
        if getattr(args, name) is not None and (name not in names or name in fixed):
            why = "fixed by the start in" if name in names else "not read by"
            raise SchemaError(name, f"--{name} is {why} --case {case_name}")
    return {
        n: args.param_defaults[n] if getattr(args, n) is None else getattr(args, n)
        for n in names if n in args.param_defaults and n not in fixed
    }


def _params(case_name: str, args, **values):
    """The parameters of a case from the flags in ``args``, overridden by ``values``."""
    return CASES[case_name].params(**{**_param_values(case_name, args), **values})


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    return [float(v) for v in np.linspace(lo, hi, count)]


def _four_type_fixes(state: PopulationState) -> dict:
    """The slice (a0, c0) that a four-type start lies on."""
    sums = four_types.slice_sums(state)
    return {"a0": sums[0], "c0": sums[2]}


def _four_type_sample(p: four_types.FourTypeParams, rng) -> PopulationState:
    """A random state on the slice (a0, c0): each pair split at a uniform fraction."""
    a0, c0 = p.a0, p.c0
    x1, x3, y1, y3 = (w * rng.uniform(0.05, 0.95) for w in (a0, 1.0 - a0, c0, 1.0 - c0))
    return make_state((x1, a0 - x1, x3, 1.0 - a0 - x3), (y1, c0 - y1, y3, 1.0 - c0 - y3))


_COORDS8 = [f"x{i+1}" for i in range(4)] + [f"y{k+1}" for k in range(4)]

CASES = {
    "two-type": Case(
        params=two_types.TwoTypeParams,
        parse_start=lambda text: two_types.check_start(
            two_types.reduce_state(_parse_full_state(text)) if ";" in text else _parse_point(text)
        ),
        predict=lambda p, s, tol: two_types.predict_limit(p, s, tol),
        label=lambda p, lim: "m1-extinct" if lim[1] == 0.0 and lim[0] < 1.0 else "f2-extinct",
        doc=lambda s, lim: {
            "start": list(s),
            "limit": list(lim),
            "limit_full": _state_doc(two_types.lift_point(lim)),
        },
        sample=lambda p, rng: (rng.uniform(0.02, 0.98), rng.uniform(0.02, 0.98)),
        sweep_columns=(("x0", "y0"), ("limit_x", "limit_y")),
        grid_starts=lambda count: list(itertools.product(_linspace(0.1, 0.9, count), repeat=2)),
        verify_axes=("a", "b"),
        planar=lambda p: (p.step, lambda s: two_types.jacobian_matrix(p, s), (1.0, 1.0)),
        portrait=(("two-type", {}),),
    ),
    "four-type": Case(
        params=four_types.FourTypeParams,
        parse_start=_parse_full_state,
        predict=lambda p, s, tol: four_types.predict_limit(p, s, tol),
        label=lambda p, lim: four_types.survivor_label(p),
        doc=lambda s, lim: {"start": _state_doc(s), "limit": _state_doc(lim)},
        sample=_four_type_sample,
        sweep_columns=(tuple(f"s0_{c}" for c in _COORDS8), tuple(f"limit_{c}" for c in _COORDS8)),
        coords=PopulationState.coords,
        fixes=_four_type_fixes,
        on_line=lambda p: 0 in four_types.limit_branch(p),
        planar=lambda p: (p.sub12_step, lambda s: four_types.sub12_jacobian(p, s), (p.a0, p.c0)),
        portrait=tuple(
            (regime, {"a": a, "c": c})
            for regime, a, c in (("below", 0.3, 0.3), ("above", 0.7, 0.7), ("critical", 0.4, 0.6))
        ),
    ),
    "critical-line": Case(
        params=four_types.CriticalMapParams,
        parse_start=lambda text: four_types.check_critical_start(float(text)),
        predict=lambda p, x, tol: four_types.predict_limit_critical(p, x, tol),
        label=lambda p, lim: "affine" if p.is_affine else "quadratic",
        doc=lambda x, lim: {"x0": x, "limit": lim},
        sweep_columns=(("x0",), ("limit",)),
        start_flag="x0",
        coords=lambda x: (x,),
        grid_starts=lambda count: _linspace(0.05, 0.95, count),
    ),
}


# ---------------------------------------------------------------------------
# construct / iterate
# ---------------------------------------------------------------------------


def _construct(path: str):
    """The configuration space and the operator built from a construction JSON file."""
    try:
        doc = construction.load_json(path)
    except json.JSONDecodeError as exc:
        raise SchemaError("input", f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    space, weights = construction.construction_from_json(doc)
    return space, construction.build_operator(space, weights)


def cmd_construct(args) -> int:
    space, op = _construct(args.input)
    connected = len(space.components) == 1
    identity = construction.is_identity(op, _tolerance(args))
    construction.dump_json(construction.operator_to_json(op), args.output)
    print(f"n={op.n} nu={op.nu}")
    print(f"connected: {str(connected).lower()}")
    print(f"identity: {str(identity).lower()}")
    return EXIT_OK


def _operator_from_args(args) -> tuple[construction.BisexualOperator, dict]:
    sources = [
        args.operator is not None,
        args.construction is not None,
        args.two_type,
        args.four_type,
    ]
    if sum(sources) != 1:
        raise SchemaError(
            "operator", "exactly one of --operator, --construction, --two-type, --four-type"
        )
    if args.operator is not None:
        doc = construction.load_json(args.operator)
        return construction.operator_from_json(doc), {"kind": "operator-json", "path": args.operator}
    if args.construction is not None:
        _, op = _construct(args.construction)
        return op, {"kind": "construction-json", "path": args.construction}
    kind = "two-type" if args.two_type else "four-type"
    p = _params(kind, args)
    module = two_types if args.two_type else four_types
    # The slice sums a0, c0 are not part of the four-type operator.
    meta = {n: getattr(p, n) for n in CASES[kind].names if n not in ("a0", "c0")}
    return module.lift_operator(p), {"kind": kind, **meta}


def cmd_iterate(args) -> int:
    op, meta = _operator_from_args(args)
    state = _parse_full_state(args.state)
    tol = _tolerance(args)
    trajectory = dynamics.iterate(op, state, tol)
    n, limit = op.n, trajectory.limit
    if args.trajectory is not None:
        header = ["step"] + [f"x_{i+1}" for i in range(n)] + [f"y_{k+1}" for k in range(op.nu)]
        states = trajectory.states.tolist()
        _write_trajectory(args.trajectory, header, trajectory.state_steps, states)
    # Each block total's largest distance from its value at the start.
    female, male = block_totals(trajectory.states, n)
    drifts = {"female_total": float(np.abs(female - female[0]).max()),
              "male_total": float(np.abs(male - male[0]).max())}
    summary = {
        "source": meta,
        "initial": _state_doc(state),
        "converged": trajectory.converged,
        "steps": trajectory.steps_taken,
        "limit": None if limit is None else {"female": list(limit[:n]), "male": list(limit[n:])},
        "drifts": drifts,
        "seed": args.seed,
        "tolerance": asdict(tol),
    }
    _write_json(summary, args.summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixed-points / classify: per-case documents
# ---------------------------------------------------------------------------


def cmd_fixed_points(args) -> int:
    tol = _tolerance(args)
    case, p = CASES[args.case], _params(args.case, args)
    if args.grid and case.planar is None:
        raise SchemaError("grid", f"--case {args.case} has no planar map to search; omit --grid")
    if args.case == "two-type":
        doc = {"case": "two-type", "segments": two_types.FIXED_SEGMENTS}
    elif args.case == "four-type":
        points = four_types.sub12_fixed_points(p)
        residuals = [max(abs(n - o) for n, o in zip(p.sub12_step(pt), pt)) for pt in points]
        doc = {
            "case": "four-type",
            "critical": four_types.limit_branch(p)[0] == 0,
            "points": [list(pt) for pt in points],
            "residuals": residuals,
        }
    else:
        point, spurious, discriminant = four_types.critical_fixed_points(p)
        doc = {
            "case": "critical-line",
            "point": point,
            "spurious": spurious,
            "discriminant": discriminant,
            "slope": four_types.critical_slope(p),
        }
    if args.grid:
        found = dynamics.find_fixed_points_grid(*case.planar(p), args.grid, tol)
        doc["grid_points"] = [list(pt) for pt in found]
    _write_json(doc, args.output)
    return EXIT_OK


def _verdict_doc(matrix, tol: Tolerance) -> dict:
    verdict = dynamics.classify_fixed_point_2d(matrix, tol)
    return {"kind": verdict.kind.value, "eigen_moduli": list(verdict.eigen_moduli)}


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    p = _params(args.case, args)
    step, jacobian, _ = CASES[args.case].planar(p)
    if args.case == "two-type":
        point = two_types.check_start(_parse_point("0,0" if args.state is None else args.state))
        if not dynamics.is_fixed(step, point, tol):
            raise ValueError(f"{point} is not fixed: one step moves it by more than --abs-eps")
        doc = {"case": "two-type", "state": list(point), **_verdict_doc(jacobian(point), tol)}
    else:
        if args.state is not None:
            raise SchemaError("state", "--state is not read by --case four-type, which "
                              "classifies every fixed point of its slice")
        fixed = four_types.sub12_fixed_points(p)
        points = [{"point": list(pt), **_verdict_doc(jacobian(pt), tol)} for pt in fixed]
        doc = {"case": "four-type", "points": points}
    _write_json(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# predict / verify / sweep: one loop each over the case table
# ---------------------------------------------------------------------------


def _start_text(args, defaults: dict | None = None):
    """The value of the case's start flag, ``--state`` or ``--x0``.

    A ``SchemaError`` when the other start flag was given, which the case
    does not read, or when the start flag was not given and has no entry in
    ``defaults``.
    """
    flag = CASES[args.case].start_flag
    other = "x0" if flag == "state" else "state"
    if getattr(args, other) is not None:
        raise SchemaError(other, f"--{other} is not read by --case {args.case}; give --{flag}")
    text = getattr(args, flag)
    if text is None:
        if flag not in (defaults or {}):
            raise SchemaError(flag, f"--{flag} is required for --case {args.case}")
        return defaults[flag]
    return text


def cmd_predict(args) -> int:
    case = CASES[args.case]
    tol = _tolerance(args)
    start = case.parse_start(_start_text(args))
    fixed = case.fixes(start)
    p = case.params(**_param_values(args.case, args, fixed), **fixed)
    limit = case.predict(p, start, tol)
    doc = {"case": args.case, **case.doc(start, limit), "class": case.label(p, limit)}
    _write_json(doc, args.output)
    return EXIT_OK


def _portrait_rows(case: Case, args, tol: Tolerance):
    """Trajectory point streams behind the case's phase-portrait regimes."""
    short_tol = Tolerance(abs_eps=tol.abs_eps, iter_eps=tol.iter_eps, max_iters=20_000)
    fan = [(0.05, 0.9), (0.3, 0.9), (0.6, 0.9), (0.9, 0.85), (0.9, 0.1), (0.6, 0.05), (0.3, 0.08), (0.08, 0.3)]
    for regime, overrides in case.portrait:
        step, _, (w, h) = case.planar(_params(args.case, args, **overrides))
        starts = [[u * w for u, _ in fan], [v * h for _, v in fan]]
        run = dynamics.iterate_batch(lambda _, s: step(s), starts, short_tol, store_cap=400)
        for t, trajectory in enumerate(run.trajectories):
            for step_index, (x, y) in zip(trajectory.state_steps, trajectory.states.tolist()):
                yield (regime, t, step_index, x, y)


def cmd_verify(args) -> int:
    if args.grid < 1 or args.starts < 1:
        raise SchemaError(
            "grid", f"--grid and --starts must be >= 1, got {args.grid} and {args.starts}"
        )
    if not 0.0 <= args.match_eps < math.inf:
        raise SchemaError("match-eps", f"must be finite and >= 0, got {args.match_eps}")
    case = CASES[args.case]
    tol = _tolerance(args)
    rng = np.random.default_rng(args.seed)
    grid_values = _linspace(0.05, 0.95, args.grid)
    # Of each start one after another, a cell's starts together: parameters and
    # coordinates of the start and of its closed-form limit.
    params, start_coords, limit_coords, cells = [], array("d"), array("d"), []
    for u in grid_values:
        for v in grid_values:
            cell = dict(zip(case.verify_axes, (u, v)))
            p = _params(args.case, args, **cell)
            for s0 in [case.sample(p, rng) for _ in range(args.starts)]:
                limit_coords.extend(case.coords(case.predict(p, s0, tol)))
                start_coords.extend(case.coords(s0))
            params.extend([p] * args.starts)
            cells.append({**cell, "kind": "critical-line" if case.on_line(p) else "closed-form"})
    # One batch steps every start; each cell keeps its starts' largest coordinate
    # gap to the closed form, their summed steps and whether all converged.
    shape, per_cell = (len(params), -1), (len(cells), args.starts)
    run = dynamics.iterate_batch(
        case.params.step,
        np.frombuffer(start_coords).reshape(shape).T,
        tol,
        params=dynamics.stack_params(params),
    )
    gaps = np.abs(run.end - np.frombuffer(limit_coords).reshape(shape).T).max(axis=0)
    for cell, gap, steps, converged in zip(
        cells,
        gaps.reshape(per_cell).max(axis=1).tolist(),
        run.steps_taken.reshape(per_cell).sum(axis=1).tolist(),
        run.converged.reshape(per_cell).all(axis=1).tolist(),
    ):
        passed = converged and gap <= args.match_eps
        cell.update({"max_mismatch": gap, "steps": steps, "converged": converged, "pass": passed})
    n_pass = sum(1 for cell in cells if cell["pass"])
    report = {
        "case": args.case,
        "grid": args.grid,
        "starts": args.starts,
        "seed": args.seed,
        "match_eps": args.match_eps,
        "tolerance": asdict(tol),
        "cells": cells,
        "n_cells": len(cells),
        "n_pass": n_pass,
        "max_mismatch": max((cell["max_mismatch"] for cell in cells), default=0.0),
        "pass": n_pass == len(cells),
    }
    _write_json(report, args.report)
    if args.portrait is not None:
        header = ["regime", "traj", "step", "x", "y"]
        _write_csv(args.portrait, header, _portrait_rows(case, args, tol))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Closed-form limits over a parameter grid, one CSV row per (parameters, start).

    Parameters outside their valid range give status ``ValueError`` and
    starts the closed form rejects give the error's name, both with blank
    limits.
    """
    case = CASES[args.case]
    tol = _tolerance(args)
    text = _start_text(args, SWEEP_STARTS)
    if text.startswith("grid:") and case.grid_starts is not None:
        starts = case.grid_starts(int(text.split(":", 1)[1]))
    else:
        starts = [case.parse_start(text)]
    # Only the four-type case has start-determined parameters, and its sweep takes one start.
    fixed = case.fixes(starts[0]) if starts else {}
    ranges = _param_values(args.case, args, fixed)
    start_rows = [(s, list(case.coords(s))) for s in starts]
    start_columns, limit_columns = case.sweep_columns
    blank = [""] * len(limit_columns)
    rows = []
    for combo in itertools.product(*map(_parse_range, ranges.values())):
        values = {**dict(zip(ranges, combo)), **fixed}
        head = [values[n] for n in case.names]
        try:
            p = case.params(**values)
        except ValueError:
            rows.extend(head + sr + ["ValueError", *blank, ""] for _, sr in start_rows)
            continue
        for start, start_row in start_rows:
            try:
                limit = case.predict(p, start, tol)
            except QsobpError as exc:
                rows.append(head + start_row + [type(exc).__name__, *blank, ""])
                continue
            rows.append(head + start_row + ["ok", *case.coords(limit), case.label(p, limit)])
    _write_csv(args.output, [*case.names, *start_columns, "status", *limit_columns, "class"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

CASE_DEFAULTS = {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3, "a0": 0.5, "c0": 0.5}
# The start of a sweep whose start flag is not given.
SWEEP_STARTS = {"state": "0.2,0.3", "x0": "0.2"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsobp",
        description="Bisexual-population quadratic stochastic operators: "
        "construction, simulation, fixed-point analysis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, about, cases=None, params=None, kind=float, params_help=None,
                seed_help=None):
        """A subcommand with its --case choices, parameter flags (None when left
        out; ``params``, their defaults, becomes ``args.param_defaults``),
        tolerance flags and, given ``seed_help``, a --seed flag."""
        cmd = sub.add_parser(name, help=about)
        cmd.set_defaults(func=func, param_defaults=params or {})
        if cases is not None:
            cmd.add_argument("--case", choices=cases, required=True)
        for flag in params or {}:
            cmd.add_argument(f"--{flag}", type=kind, default=None, help=params_help)
        cmd.add_argument("--abs-eps", type=float, default=1e-9, help="comparison epsilon")
        if name in ("iterate", "verify"):  # the commands that iterate
            cmd.add_argument("--iter-eps", type=float, default=1e-12,
                             help="iteration stop threshold")
            cmd.add_argument("--max-iters", type=int, default=10**6, help="iteration budget")
        if seed_help is not None:
            cmd.add_argument("--seed", type=int, default=42, help=seed_help)
        return cmd

    cmd = command("construct", cmd_construct, "build an operator from a construction JSON",
                  seed_help="ignored: the construction draws nothing at random")
    cmd.add_argument("--input", required=True, help="construction JSON path")
    cmd.add_argument("--output", required=True, help="operator JSON path")

    cmd = command("iterate", cmd_iterate, "iterate an operator from a state",
                  params=dict.fromkeys(CASE_DEFAULTS, 0.5),
                  seed_help="recorded in the summary; iteration draws nothing at random")
    cmd.add_argument("--operator", default=None, help="operator JSON path")
    cmd.add_argument("--construction", default=None, help="construction JSON path")
    cmd.add_argument("--two-type", action="store_true", help="inline two-type params")
    cmd.add_argument("--four-type", action="store_true", help="inline four-type params")
    cmd.add_argument("--state", required=True, help="'x1,..;y1,..'")
    cmd.add_argument("--trajectory", default=None, help="trajectory CSV path")
    cmd.add_argument("--summary", default=None, help="summary JSON path (default stdout)")

    cmd = command("fixed-points", cmd_fixed_points, "fixed points of a case map", list(CASES),
                  CASE_DEFAULTS)
    cmd.add_argument("--grid", type=int, default=0, help="two-type and four-type only: seeds "
                     "per axis of the numerical fixed-point search (≥ 2; 0 skips it)")
    cmd.add_argument("--output", default=None)

    cmd = command("classify", cmd_classify, "stability classes of fixed points",
                  ["two-type", "four-type"], CASE_DEFAULTS)
    cmd.add_argument("--state", default=None, help="two-type: point to classify at (default 0,0)")
    cmd.add_argument("--output", default=None)

    cmd = command("predict", cmd_predict, "closed-form trajectory limit; a start that one step "
                  "moves by at most --abs-eps is fixed and exits 2", list(CASES), CASE_DEFAULTS)
    cmd.add_argument("--state", default=None, help="initial state")
    cmd.add_argument("--x0", type=float, default=None, help="critical-line start")
    cmd.add_argument("--output", default=None)

    cmd = command("verify", cmd_verify, "pair closed-form limits with brute-force iteration",
                  ["two-type", "four-type"], {"b": 0.3, "d": 0.4, "a0": 0.5, "c0": 0.5, "a": 0.3},
                  params_help="parameters the grid leaves fixed; two-type --a/--b set the portrait",
                  seed_help="seed of the random starts")
    cmd.add_argument("--grid", type=int, default=10)
    cmd.add_argument("--starts", type=int, default=3, help="random starts per cell")
    cmd.add_argument("--match-eps", type=float, default=DEFAULT_MATCH_EPS)
    cmd.add_argument("--report", required=True, help="report JSON path")
    cmd.add_argument("--portrait", default=None, help="phase-portrait CSV path")

    cmd = command("sweep", cmd_sweep, "batch closed-form predictions over parameter grids",
                  list(CASES), dict.fromkeys(CASE_DEFAULTS, "0.3"), str, "value or lo:hi:count")
    cmd.add_argument("--state", default=None,
                     help="start state or grid:N (two-type); default 0.2,0.3")
    cmd.add_argument("--x0", default=None, help="critical-line start or grid:N; default 0.2")
    cmd.add_argument("--output", required=True, help="sweep CSV path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QsobpError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
