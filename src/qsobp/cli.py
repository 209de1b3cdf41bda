"""Command-line surface: construct, iterate, fixed-points, classify, predict, verify, sweep.

Machine-readable outputs: trajectories and sweeps go to CSV, summaries and
reports to JSON with sorted keys, so identical invocations produce
byte-identical files.  Exit codes: 0 = ran (including non-convergence),
2 = input error (a grid or range too large to hold in memory included),
3 = I/O error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import construction, dynamics, four_types, two_types
from .errors import FixedPointInputError, QsobpError, SchemaError, SizeOverflowError
from .simplex import (Tolerance, block_totals, check_states, check_unit, float_texts, make_state,
                      rejected_rows, write_json)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

# Report-level agreement threshold between iterated and predicted limits.
DEFAULT_MATCH_EPS = 1e-6

# verify holds all its grid**2 * starts rows at once, and fixed-points --grid its
# grid**2 seeds.  Peak RSS grew by about 1.3 KB (two-type) and 1.6 KB (four-type)
# per verify row at one start per cell, grids of 200 and 400, and by 0.46 KB
# (four-type) and 0.68 KB (two-type, whose seeds nearly all stay distinct points)
# per seed, grids of 500 and 1000; measured in process on Python 3.11 and numpy
# 2.4.  Runs above these counts, which need up to about 0.8 GiB (verify) and 1.4
# GiB (fixed-points), are refused before any array is allocated.
VERIFY_ROWS_CAP = 2**19
GRID_SEEDS_CAP = 2**21


# ---------------------------------------------------------------------------
# Small helpers.
# ---------------------------------------------------------------------------


def _tolerance(args) -> Tolerance:
    """The tolerance flags given; ``Tolerance``'s defaults for the fields left out or flagless."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Tolerance)}
    return Tolerance(**{name: value for name, value in given.items() if value is not None})


def _parse_numbers(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise SchemaError("state", f"cannot parse {text!r} as comma-separated numbers") from None


def _parse_full_state(text: str) -> tuple[list[float], list[float]]:
    """The female and the male block of 'x1,..,xn;y1,..,ynu', unchecked."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SchemaError("state", "expected 'females;males' with a single ';'")
    return _parse_numbers(parts[0]), _parse_numbers(parts[1])


def _two_type_point(text: str) -> tuple[float, float]:
    """(x1, y1) of 'x1,y1' or of the two-type state 'x1,x2;y1,y2', which ``make_state``
    checks; ``ValueError`` for a point outside the unit square."""
    if ";" in text:
        female, male = _parse_full_state(text)
        make_state(female, male)
        values = [female[0], male[0]]
    else:
        values = _parse_numbers(text)
        if len(values) != 2:
            raise SchemaError("state", f"expected two coordinates, got {len(values)}")
    return check_unit((values[0], values[1]), "the unit square")


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
    return np.linspace(lo, hi, count).tolist()


def _write_lines(path: str, header: Sequence[str], lines) -> None:
    """The CSV file ``csv.writer`` writes for ``header`` and rows whose fields it never quotes
    (names, ints, ``float_texts``) or quotes as given; ``lines`` hold whole rows and CR LFs."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _float_rows(heads: Sequence, states):
    """The rows 'head,x1,..,xd' of ``heads`` and (k, d) ``states``, in blocks of about
    ``SWEEP_BLOCK_ROWS`` floats."""
    states = np.asarray(states, dtype=float)
    per_block = max(1, SWEEP_BLOCK_ROWS // max(1, states[:1].size))  # at least one row
    for first in range(0, len(states), per_block):
        block = slice(first, first + per_block)
        texts = float_texts(states[block]).tolist()
        yield "".join(f"{head}," + ",".join(s) + "\r\n" for head, s in zip(heads[block], texts))


def _grid(axes: Sequence[np.ndarray], index) -> np.ndarray:
    """The rows at the flat ``index`` of the product of the 1-D ``axes``, the last axis fastest."""
    at = np.unravel_index(index, tuple(map(len, axes)))
    return np.stack([axis[i] for axis, i in zip(axes, at)], axis=1)


def _state_doc(coords: Sequence[float], n: int) -> dict:
    """The female block, the first ``n`` coordinates, and the male block."""
    return {"female": list(coords[:n]), "male": list(coords[n:])}


# ---------------------------------------------------------------------------
# The cases: per-case parts of predict, verify and sweep.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """The per-case parts of predict, verify and sweep.

    A start is the tuple of coordinates that ``params.step`` iterates and that
    sweep rows hold; B starts are a (B, d) array, which the predictor takes with
    parameters whose fields are numbers or (B,) arrays.  Predictors are looked
    up in their module at call time, so a wrapped module attribute sees every call.
    """

    params: type  # its fields are the case's parameter names, in sweep-column order
    parse_start: Callable[[str], tuple]  # raises ValueError for a start outside the domain
    predict: Callable  # (params, (B, d) starts, tolerance) -> (limits, fixed, invalid)
    labels: tuple[str, ...]  # the class labels
    label: Callable  # (params, (B, d) limits) -> each row's index into ``labels``
    doc: Callable  # (start, limit) -> the start and limit fields of the predict document
    sweep_columns: tuple[tuple[str, ...], tuple[str, ...]]  # start and limit columns
    start_flag: str = "state"
    state_n: int = 0  # the female block's size when starts and limits are population states
    grid_starts: Callable[[int], list] | None = None  # sweep starts for 'grid:N'
    fixes: Callable[[tuple], dict] = lambda start: {}  # parameters a start determines
    sample: Callable | None = None  # (stacked params, rng) -> one random verify start per row
    verify_axes: tuple[str, str] = ("a", "c")
    # Stacked parameters -> where verify names the cell critical-line, as a mask or one bool.
    on_line: Callable = lambda p: False
    planar: Callable | None = None  # params -> (planar map, its Jacobian, (w, h) of [0,w] x [0,h])
    planar_unread: tuple[str, ...] = ()  # the parameters that the planar map does not read
    portrait: tuple = ()  # (regime, parameter overrides) of each verify portrait regime

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params))


def _reject(args, names, why: str) -> None:
    """A ``SchemaError`` naming the first of the flags ``names`` (``args`` attribute
    names) that was given."""
    for name in names:
        if getattr(args, name, None) is not None:
            flag = name.replace("_", "-")
            raise SchemaError(flag, f"--{flag} is {why}")


def _param_values(case_name: str, args, fixed=()) -> dict:
    """Each case parameter the command has a flag for and the start does not fix:
    the flag's value, or the default when not given.  A ``SchemaError`` names any
    other parameter flag that was given."""
    names = CASES[case_name].names
    unread = [n for n in args.param_defaults if n not in names]
    _reject(args, unread, f"not read by --case {case_name}")
    _reject(args, fixed, f"fixed by the start in --case {case_name}")
    return {n: args.param_defaults[n] if getattr(args, n) is None else getattr(args, n)
            for n in names if n in args.param_defaults and n not in fixed}


def _params(case_name: str, args, **values):
    """The parameters of a case from the flags in ``args``, overridden by ``values``."""
    return CASES[case_name].params(**{**_param_values(case_name, args), **values})


def _planar_params(args):
    """``_params`` for a command that reads the case's planar map and no other parameter."""
    why = f"not read by the planar map of --case {args.case}"
    _reject(args, CASES[args.case].planar_unread, why)
    return _params(args.case, args)


def _four_type_sample(p: four_types.FourTypeParams, rng) -> np.ndarray:
    """A random state on each row's slice (a0, c0): each pair split at a uniform fraction."""
    a0, c0 = p.a0, p.c0
    widths = np.stack([a0, 1.0 - a0, c0, 1.0 - c0], axis=1)
    x1, x3, y1, y3 = (widths * rng.uniform(0.05, 0.95, widths.shape)).T
    return np.stack([x1, a0 - x1, x3, 1.0 - a0 - x3, y1, c0 - y1, y3, 1.0 - c0 - y3], axis=1)


_COORDS8 = [f"x{i+1}" for i in range(4)] + [f"y{k+1}" for k in range(4)]

CASES = {
    "two-type": Case(
        params=two_types.TwoTypeParams,
        parse_start=_two_type_point,
        predict=lambda p, s, tol: two_types.predict_limit(p, s, tol),
        labels=("m1-extinct", "f2-extinct"),
        label=lambda p, lim: np.where((lim[:, 1] == 0.0) & (lim[:, 0] < 1.0), 0, 1),
        doc=lambda s, lim: {
            "start": list(s),
            "limit": list(lim),
            # The full state of the point (x1, y1).
            "limit_full": _state_doc(make_state(*([v, 1.0 - v] for v in lim)).tolist(), 2),
        },
        sample=lambda p, rng: rng.uniform(0.02, 0.98, (len(p.a), 2)),
        sweep_columns=(("x0", "y0"), ("limit_x", "limit_y")),
        grid_starts=lambda n: _grid([np.linspace(0.1, 0.9, n)] * 2, np.arange(n * n)).tolist(),
        verify_axes=("a", "b"),
        planar=lambda p: (p.step, lambda s: four_types.pair_jacobian(
            0.0, p.a, 0.0, 1.0 - p.b, 1.0, 1.0, *s), (1.0, 1.0)),
        portrait=(("two-type", {}),),
    ),
    "four-type": Case(
        params=four_types.FourTypeParams,
        parse_start=lambda text: tuple(make_state(*_parse_full_state(text)).tolist()),
        predict=lambda p, s, tol: four_types.predict_limit(p, s, tol),
        labels=four_types.SURVIVOR_LABELS,
        label=lambda p, lim: np.broadcast_to(four_types.survivor_code(p), len(lim)),
        doc=lambda s, lim: {"start": _state_doc(s, 4), "limit": _state_doc(lim, 4)},
        sample=_four_type_sample,
        sweep_columns=(tuple(f"s0_{c}" for c in _COORDS8), tuple(f"limit_{c}" for c in _COORDS8)),
        state_n=4,
        fixes=lambda s: dict(zip(("a0", "c0"), four_types.slice_sums(s)[::2])),  # its slice
        on_line=lambda p: np.equal(four_types.limit_branch(p), 0).any(axis=0),
        planar=lambda p: (p.sub12_step, lambda s: four_types.pair_jacobian(
            1.0 - p.a, p.a, p.c, 1.0 - p.c, p.a0, p.c0, *s), (p.a0, p.c0)),
        planar_unread=("b", "d"),  # the type-3/4 block's
        portrait=tuple(
            (regime, {"a": a, "c": c})
            for regime, a, c in (("below", 0.3, 0.3), ("above", 0.7, 0.7), ("critical", 0.4, 0.6))
        ),
    ),
    "critical-line": Case(
        params=four_types.CriticalMapParams,
        parse_start=lambda text: (check_unit(float(text), "[0, 1]"),),
        predict=lambda p, x, tol: four_types.predict_limit_critical(p, x, tol),
        labels=("quadratic", "affine"),
        label=lambda p, lim: np.broadcast_to(p.is_affine, len(lim)),
        doc=lambda x, lim: {"x0": x[0], "limit": lim[0]},
        sweep_columns=(("x0",), ("limit",)),
        start_flag="x0",
        grid_starts=lambda count: [(x,) for x in np.linspace(0.05, 0.95, count).tolist()],
    ),
}


def _predict(case: Case, p, starts: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The limits of the (B, d) ``starts`` under valid ``p``; ``FixedPointInputError``
    names the first fixed start; ``check_states`` checks starts and limits that are states."""
    limits, fixed, _ = case.predict(p, starts, tol)
    if fixed.any():
        start = tuple(starts[np.argmax(fixed)].tolist())
        raise FixedPointInputError(f"the start {start} is already a fixed point")
    if case.state_n:
        check_states(np.concatenate([starts, limits]), case.state_n)
    return limits


# ---------------------------------------------------------------------------
# construct / iterate
# ---------------------------------------------------------------------------


def _construct(path: str):
    """The configuration space and the operator built from a construction JSON file."""
    space, weights = construction.construction_from_json(construction.load_json(path))
    return space, construction.build_operator(space, weights)


def cmd_construct(args) -> int:
    space, op = _construct(args.input)
    connected = len(space.components) == 1
    identity = construction.is_identity(op, _tolerance(args))
    pf, pm = op.tensors.pf, op.tensors.pm  # as arrays: dump_json formats each tensor once
    construction.dump_json({"n": op.n, "nu": op.nu, "pf": pf, "pm": pm}, args.output)
    print(f"n={op.n} nu={op.nu}")
    print(f"connected: {str(connected).lower()}")
    print(f"identity: {str(identity).lower()}")
    return EXIT_OK


def _operator_from_args(args) -> tuple[construction.BisexualOperator, dict]:
    files = {"operator": args.operator, "construction": args.construction}
    if sum(v is not None for v in files.values()) + args.two_type + args.four_type != 1:
        raise SchemaError(
            "operator", "exactly one of --operator, --construction, --two-type, --four-type"
        )
    for flag, path in files.items():
        if path is not None:  # the file holds the operator: no parameter flag reaches it
            _reject(args, args.param_defaults, f"not read by --{flag}")
    if args.operator is not None:
        doc = construction.load_json(args.operator)
        return construction.operator_from_json(doc), {"kind": "operator-json", "path": args.operator}
    if args.construction is not None:
        _, op = _construct(args.construction)
        return op, {"kind": "construction-json", "path": args.construction}
    kind = "two-type" if args.two_type else "four-type"
    # The slice sums a0, c0 are not part of the four-type operator.
    _reject(args, ("a0", "c0"), "not read by --four-type, whose operator acts on every slice")
    p = _params(kind, args)
    module = two_types if args.two_type else four_types
    meta = {n: getattr(p, n) for n in CASES[kind].names if n not in ("a0", "c0")}
    return module.lift_operator(p), {"kind": kind, **meta}


def cmd_iterate(args) -> int:
    op, meta = _operator_from_args(args)
    female, male = _parse_full_state(args.state)
    tol = _tolerance(args)
    run = dynamics.iterate(op, female, male, tol)
    n, limit = op.n, run.limit
    if args.trajectory is not None:
        header = ["step"] + [f"x_{i+1}" for i in range(n)] + [f"y_{k+1}" for k in range(op.nu)]
        _write_lines(args.trajectory, header, _float_rows(run.state_steps, run.states))
    # Each block total's largest distance from its value at the start.
    drifts = {f"{block}_total": float(np.abs(total - total[0]).max())
              for block, total in zip(("female", "male"), block_totals(run.states, n))}
    summary = {
        "source": meta,
        "initial": {"female": female, "male": male},
        "converged": run.converged,
        "steps": run.steps_taken,
        "limit": None if limit is None else _state_doc(limit, n),
        "drifts": drifts,
        "seed": args.seed,
        "tolerance": {"iter_eps": tol.iter_eps, "max_iters": tol.max_iters},
    }
    write_json(summary, args.summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixed-points / classify: per-case documents
# ---------------------------------------------------------------------------


def cmd_fixed_points(args) -> int:
    tol = _tolerance(args)
    case, p = CASES[args.case], _planar_params(args)
    if args.grid and case.planar is None:
        raise SchemaError("grid", f"--case {args.case} has no planar map to search; omit --grid")
    if args.grid**2 > GRID_SEEDS_CAP:
        raise SizeOverflowError(f"--grid {args.grid} makes {args.grid**2} seeds, "
                                f"above the bound of {GRID_SEEDS_CAP}")
    if not args.grid:  # nothing compares to --abs-eps; the two-type segments hold for any a, b
        unread = ("a", "b", "abs_eps") if args.case == "two-type" else ("abs_eps",)
        _reject(args, unread, f"not read by fixed-points --case {args.case} without --grid; "
                "only --grid reads it")
    if args.case == "two-type":
        doc = {"case": "two-type", "segments": two_types.FIXED_SEGMENTS}
    elif args.case == "four-type":
        points = four_types.sub12_fixed_points(p)
        residuals = [max(abs(n - o) for n, o in zip(p.sub12_step(pt), pt)) for pt in points]
        doc = {"case": "four-type", "critical": four_types.limit_branch(p)[0] == 0,
               "points": [list(pt) for pt in points], "residuals": residuals}
    else:
        point, spurious, discriminant = four_types.critical_fixed_points(p)
        doc = {"case": "critical-line", "point": point, "spurious": spurious,
               "discriminant": discriminant, "slope": four_types.critical_slope(p)}
    if args.grid:
        found = dynamics.find_fixed_points_grid(*case.planar(p), args.grid, tol)
        doc["grid_points"] = np.array(found)  # written as its rows, each row one join
    write_json(doc, args.output)
    return EXIT_OK


def _verdict_doc(matrix, tol: Tolerance) -> dict:
    verdict = dynamics.classify_fixed_point(matrix, tol)
    return {"kind": verdict.kind.value, "eigen_moduli": list(verdict.eigen_moduli)}


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    p = _planar_params(args)
    step, jacobian, _ = CASES[args.case].planar(p)
    if args.case == "two-type":
        point = _two_type_point("0,0" if args.state is None else args.state)
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
    write_json(doc, args.output)
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
    limits = _predict(case, p, np.array([start]), tol)
    limit = tuple(limits[0].tolist())
    label = case.labels[int(case.label(p, limits)[0])]
    doc = {"case": args.case, **case.doc(start, limit), "class": label}
    write_json(doc, args.output)
    return EXIT_OK


def _portrait_rows(case: Case, regimes, tol: Tolerance):
    """Trajectory point streams behind the phase-portrait ``regimes``, (name, parameters)
    pairs: every regime's fan of starts in one batch, with each row's parameters."""
    short_tol = Tolerance(abs_eps=tol.abs_eps, iter_eps=tol.iter_eps, max_iters=20_000)
    fan = np.array([(0.05, 0.9), (0.3, 0.9), (0.6, 0.9), (0.9, 0.85),
                    (0.9, 0.1), (0.6, 0.05), (0.3, 0.08), (0.08, 0.3)])
    starts = np.concatenate([fan * case.planar(p)[2] for _, p in regimes])
    params = case.params(**{name: np.repeat([getattr(p, name) for _, p in regimes], len(fan))
                            for name in case.names})
    run = dynamics.iterate_batch(lambda p, s: case.planar(p)[0](s), starts.T, short_tol,
                                 params=params, store_cap=400)
    names = [regime for regime, _ in regimes for _ in fan]
    heads = [f"{names[k]},{k % len(fan)},{i}"
             for k, traj in enumerate(run.trajectories) for i in traj.state_steps]
    yield from _float_rows(heads, np.concatenate([traj.states for traj in run.trajectories]))


def cmd_verify(args) -> int:
    if args.grid < 1 or args.starts < 1:
        raise SchemaError(
            "grid", f"--grid and --starts must be >= 1, got {args.grid} and {args.starts}"
        )
    rows = args.grid**2 * args.starts
    if rows > VERIFY_ROWS_CAP:
        raise SizeOverflowError(f"--grid {args.grid} and --starts {args.starts} make {rows} "
                                f"rows, above the bound of {VERIFY_ROWS_CAP}")
    if not 0.0 <= args.match_eps < math.inf:
        raise SchemaError("match-eps", f"must be finite and >= 0, got {args.match_eps}")
    case = CASES[args.case]
    # A grid axis is read from its flag only by a portrait regime that does not set it.
    axes = set(case.verify_axes)
    grid_set = axes.intersection(*(overrides for _, overrides in case.portrait))
    _reject(args, sorted(grid_set), f"set by the grid and the portrait in --case {args.case}")
    if args.portrait is None:
        why = f"set by the grid in --case {args.case}; only --portrait reads it"
        _reject(args, sorted(axes), why)
    tol = _tolerance(args)
    # Every regime's parameters are checked before any file is written.
    regimes = [(regime, _params(args.case, args, **overrides))
               for regime, overrides in (case.portrait if args.portrait is not None else ())]
    rng = np.random.default_rng(args.seed)
    axis = np.linspace(0.05, 0.95, args.grid)
    u, v = case.verify_axes
    # The first cell's parameters check the flags that every cell shares.  Then one
    # (cells,) array per field, and one row per start, a cell's starts together.
    first = _params(args.case, args, **{u: axis[0].item(), v: axis[0].item()})
    axes = [axis if name in (u, v) else np.array([getattr(first, name)]) for name in case.names]
    columns = dict(zip(case.names, _grid(axes, np.arange(args.grid**2)).T))
    on_line = np.broadcast_to(case.on_line(case.params(**columns)), args.grid**2).tolist()
    cells = [{u: x, v: y, "kind": "critical-line" if line else "closed-form"}
             for x, y, line in zip(columns[u].tolist(), columns[v].tolist(), on_line)]
    params = case.params(**{name: np.repeat(c, args.starts) for name, c in columns.items()})
    starts = case.sample(params, rng)
    limits = _predict(case, params, starts, tol)
    # One batch steps every start; each cell keeps its starts' largest coordinate
    # gap to the closed form, their summed steps and whether all converged.
    per_cell = (len(cells), args.starts)
    run = dynamics.iterate_batch(case.params.step, starts.T, tol, params=params)
    gaps = np.abs(run.end - limits.T).max(axis=0)
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
    write_json(report, args.report)
    if args.portrait is not None:
        header = ["regime", "traj", "step", "x", "y"]
        _write_lines(args.portrait, header, _portrait_rows(case, regimes, tol))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Closed-form limits over a parameter grid, one CSV row per (parameters, start),
    predicted and written ``SWEEP_BLOCK_ROWS`` rows at a time, so that no step holds
    the whole grid: a block builds only its own parameter rows, from its row indices.

    The status is ``ValueError`` for parameters outside (0, 1), else
    ``FixedPointInputError`` for a start that one step moves by at most
    ``--abs-eps``, else the name of the error ``make_state`` raises for a
    four-type limit off the simplexes, else ``ok``, the one status with limits.
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
    axes = [np.array([fixed[n]] if n in fixed else _parse_range(ranges[n])) for n in case.names]
    start_columns, limit_columns = case.sweep_columns
    start_array = np.array(starts).reshape(len(starts), len(start_columns))
    # Each start and label as text once.  The labels hold no quote or line
    # break, so only a comma makes csv quote one.
    start_texts = list(map(",".join, float_texts(start_array).tolist()))
    labels = [f'"{label}"' if "," in label else label for label in case.labels]
    blank = "," * len(limit_columns)

    def lines():
        total = math.prod(map(len, axes)) * len(starts)
        for first in range(0, total, SWEEP_BLOCK_ROWS):
            rows = np.arange(first, min(first + SWEEP_BLOCK_ROWS, total))
            head, start = np.divmod(rows, len(starts))
            table = _grid(axes, np.arange(head[0], head[-1] + 1))
            heads = list(map(",".join, float_texts(table).tolist()))
            head -= head[0]  # each row's index into ``table`` and ``heads``
            p = case.params(**dict(zip(case.names, table[head].T)))
            limits, fixed_rows, invalid = case.predict(p, start_array[start], tol)
            status = np.where(fixed_rows, "FixedPointInputError", "ok")
            status = np.where(invalid, "ValueError", status).tolist()
            if case.state_n:
                predicted = np.flatnonzero(~(invalid | fixed_rows))
                for row in predicted[rejected_rows(limits[predicted], case.state_n)].tolist():
                    try:
                        check_states(limits[row : row + 1], case.state_n)
                    except QsobpError as exc:
                        status[row] = type(exc).__name__
            texts = map(",".join, float_texts(limits).tolist())
            rows = zip(head.tolist(), start.tolist(), status, texts, case.label(p, limits).tolist())
            yield "".join([f"{heads[i]},{start_texts[j]},ok,{text},{labels[c]}\r\n" if s == "ok"
                           else f"{heads[i]},{start_texts[j]},{s},{blank}\r\n"
                           for i, j, s, text, c in rows])

    header = [*case.names, *start_columns, "status", *limit_columns, "class"]
    _write_lines(args.output, header, lines())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

SWEEP_BLOCK_ROWS = 4096  # rows of a sweep block; about the floats of a trajectory block
CASE_DEFAULTS = {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3, "a0": 0.5, "c0": 0.5}
SWEEP_STARTS = {"state": "0.2,0.3", "x0": "0.2"}  # of a sweep whose start flag is not given
NEGATIVE_VALUE = re.compile(r"-\.?\d")


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
        # Read '-' then a digit, as in the range -1:2:7 or -1e-3, as a value, not an
        # option; argparse's own pattern takes only plain negative numbers so.
        cmd._negative_number_matcher = NEGATIVE_VALUE
        cmd.set_defaults(func=func, param_defaults=params or {})
        if cases is not None:
            cmd.add_argument("--case", choices=cases, required=True)
        for flag in params or {}:
            cmd.add_argument(f"--{flag}", type=kind, default=None, help=params_help)
        # Tolerance flags left out are None, and take ``Tolerance``'s defaults.
        if name != "iterate":  # iterate tests only its moves, against --iter-eps
            cmd.add_argument("--abs-eps", type=float, help="comparison epsilon")
        if name in ("iterate", "verify"):  # the commands that iterate
            cmd.add_argument("--iter-eps", type=float, help="iteration stop threshold")
            cmd.add_argument("--max-iters", type=int, help="iteration budget")
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
    except (QsobpError, ValueError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
