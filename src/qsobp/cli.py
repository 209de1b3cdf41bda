"""Command-line surface: construct, iterate, fixed-points, classify, predict, verify, sweep.

Machine-readable outputs: trajectories and sweeps go to CSV, summaries and
reports to JSON with sorted keys, so identical invocations produce
byte-identical files.  Exit codes: 0 = ran (including non-convergence),
2 = input error (a grid or range too large to hold in memory included),
3 = I/O error.

Of the commands, only ``construct`` and ``iterate`` load ``qsobp.construction``.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import dynamics, four_types, two_types
from .errors import FixedPointInputError, QsobpError, SchemaError, SizeOverflowError
from .simplex import Tolerance, block_totals, check_unit, float_texts, make_state, write_json
if TYPE_CHECKING:
    from .construction import BisexualOperator

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3

# Report-level agreement threshold between iterated and predicted limits.
DEFAULT_MATCH_EPS = 1e-6
# verify stops a row once its certified error bound is at most this share of --match-eps.
BOUND_SHARE = 0.1
# How far a row's observed rate may exceed its certified rate by rounding alone: the
# rounding of the ratio of two moves, taken where the state nears its limit, and of
# a two-type start's level over its steps.
RATE_ALLOWANCE = 1e-12

# verify holds all its grid**2 * starts rows at once, and fixed-points --grid its
# grid**2 seeds.  Peak RSS grew by about 1.3 KB (two-type) and 1.6 KB (four-type)
# per verify row at one start per cell, grids of 200 and 400, in process.  Two-type
# seeds, which nearly all stay distinct points, cost more than four-type ones: a
# fresh process ran fixed-points --case two-type --grid 1024, at the seed cap, at a
# peak of 665 MiB (0.62 KB per seed); Python 3.11 and numpy 2.4.  Larger runs, which
# need over about 0.8 GiB (verify) and 0.7 GiB (fixed-points), exit 2 unallocated.
VERIFY_ROWS_CAP = 2**19
GRID_SEEDS_CAP = 2**20


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
    """A single value, or an inclusive range 'lo:hi:count' of count >= 0 values."""
    try:
        if ":" not in text:
            return [float(text)]
        lo, hi, count = text.split(":")
        return np.linspace(float(lo), float(hi), int(count)).tolist()
    except ValueError:  # the unpacking's, a conversion's or linspace's for count < 0
        raise SchemaError("range", f"expected a number or 'lo:hi:count' with count >= 0, "
                          f"got {text!r}") from None
    except MemoryError:
        raise SchemaError("range", f"{text!r} has more values than memory holds") from None


def _number(text: str, flag: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SchemaError(flag, f"expected a number, got {text!r}") from None


def _write_lines(path: str, header: Sequence[str], lines) -> None:
    """The CSV file ``csv.writer`` writes for ``header`` and rows whose fields it never quotes
    (names, ints, ``float_texts``) or quotes as given; ``lines`` hold whole rows and CR LFs,
    each item one ``_csv_block`` of a field table."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _csv_block(table: np.ndarray) -> str:
    """The CSV rows of the (rows, fields) object array ``table`` of field texts: its
    texts interleaved with "," between fields and CR LF after each row, in one join."""
    pieces = np.empty((len(table), 2 * table.shape[1]), dtype=object)
    pieces[:, ::2], pieces[:, 1::2] = table, ","
    pieces[:, -1] = "\r\n"
    return "".join(pieces.ravel().tolist())


def _joined(texts: np.ndarray) -> np.ndarray:
    """The object array of each row of the 2-D field texts ``texts`` joined by commas."""
    return np.array(list(map(",".join, texts.tolist())), dtype=object)


def _float_rows(heads: Sequence, states):
    """The rows 'head,x1,..,xd' of ``heads`` and (k, d) ``states``, in blocks of about
    ``SWEEP_BLOCK_ROWS`` floats."""
    states = np.asarray(states, dtype=float)
    per_block = max(1, SWEEP_BLOCK_ROWS // max(1, states[:1].size))  # at least one row
    for first in range(0, len(states), per_block):
        block = slice(first, first + per_block)
        texts = float_texts(states[block])
        table = np.empty((len(texts), 1 + texts.shape[1]), dtype=object)
        table[:, 0], table[:, 1:] = list(map(str, heads[block])), texts
        yield _csv_block(table)


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
    grid_starts: Callable[[int], list] | None = None  # sweep starts for 'grid:N'
    fixes: Callable[[tuple], dict] = lambda start: {}  # parameters a start determines
    sample: Callable | None = None  # (stacked params, rng) -> one random verify start per row
    verify_axes: tuple[str, str] = ("a", "c")
    planar_block: Callable | None = None  # params -> (what steps its planar map, its PairBlock)
    planar_unread: tuple[str, ...] = ()  # the parameters that the planar map does not read
    portrait: tuple = ()  # (regime, parameter overrides) of each verify portrait regime
    # (stacked params, (B, d) starts) -> each row's rate bound (NaN for none) and norm factor.
    stop_rate: Callable | None = None
    # (stacked params, starts, (d, B) ends) -> each row's rate (NaN for none), observed
    # rate and error bound.
    certificate: Callable | None = None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self.params))

    def planar(self, p) -> tuple:
        """The planar map of ``p``, its block's Jacobian, and the box (w, h) of the block."""
        stepper, block = self.planar_block(p)
        return stepper.step, lambda s: four_types.pair_jacobian(*block, *s), (block.a0, block.c0)


def _reject(args, names, why: str) -> None:
    """A ``SchemaError`` naming the first of the flags ``names`` (``args`` attribute
    names) that was given."""
    for name in names:
        if getattr(args, name, None) is not None:
            flag = name.replace("_", "-")
            raise SchemaError(flag, f"--{flag} is {why}")


def _param_values(args, names, fixed=(), source=None) -> dict:
    """Each of the parameters ``names`` that the command has a flag for and the start does
    not fix: the flag's value, or the default when not given.  A ``SchemaError`` names any
    other parameter flag given, and ``source``, what reads ``names`` (the ``--case`` given)."""
    source = source or f"--case {args.case}"
    _reject(args, [n for n in args.param_defaults if n not in names], f"not read by {source}")
    _reject(args, fixed, f"fixed by the start in {source}")
    return {n: args.param_defaults[n] if getattr(args, n) is None else getattr(args, n)
            for n in names if n in args.param_defaults and n not in fixed}


def _params(args, **values):
    """The parameters of ``--case`` from the flags in ``args``, overridden by ``values``."""
    case = CASES[args.case]
    return case.params(**{**_param_values(args, case.names), **values})


def _planar_params(args):
    """``_params`` for a command that reads the case's planar map and no other parameter."""
    why = f"not read by the planar map of --case {args.case}"
    _reject(args, CASES[args.case].planar_unread, why)
    return _params(args)


def _four_type_sample(p: four_types.FourTypeParams, rng) -> np.ndarray:
    """A random state on each row's slice (a0, c0): each pair split at a uniform fraction."""
    blocks = p.blocks
    widths = np.stack([block.a0 for block, _ in blocks] + [block.c0 for block, _ in blocks], axis=1)
    xs, ys = np.split((widths * rng.uniform(0.05, 0.95, widths.shape)).T, 2)
    return np.stack(four_types.block_state(blocks, zip(xs, ys), 8), axis=1)


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
        planar_block=lambda p: (p, p.blocks[0][0]),  # the map written out
        portrait=(("two-type", {}),),
        stop_rate=two_types.stop_rate,
        certificate=two_types.certificate,
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
        fixes=lambda s: dict(zip(("a0", "c0"), four_types.slice_sums(s)[::2])),  # its slice
        planar_block=lambda p: (p.blocks[0][0],) * 2,  # the type-1/2 block's own step
        planar_unread=("b", "d"),  # the type-3/4 block's
        portrait=tuple(
            (regime, {"a": a, "c": c})
            for regime, a, c in (("below", 0.3, 0.3), ("above", 0.7, 0.7), ("critical", 0.4, 0.6))
        ),
        stop_rate=four_types.stop_rate,
        certificate=four_types.certificate,
    ),
    "critical-line": Case(
        params=four_types.CriticalMapParams,
        parse_start=lambda text: (check_unit(_number(text, "x0"), "[0, 1]"),),
        predict=lambda p, x, tol: four_types.predict_limit_critical(p, x, tol),
        labels=("quadratic", "affine"),
        label=lambda p, lim: np.broadcast_to(p.is_affine, len(lim)).astype(np.intp),
        doc=lambda x, lim: {"x0": x[0], "limit": lim[0]},
        sweep_columns=(("x0",), ("limit",)),
        start_flag="x0",
        grid_starts=lambda count: [(x,) for x in np.linspace(0.05, 0.95, count).tolist()],
    ),
}


def _predict(case: Case, p, starts: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The limits of the (B, d) ``starts`` under valid ``p``; ``FixedPointInputError``
    names the first fixed start."""
    limits, fixed, _ = case.predict(p, starts, tol)
    if fixed.any():
        start = tuple(starts[np.argmax(fixed)].tolist())
        raise FixedPointInputError(f"the start {start} is already a fixed point")
    return limits


# ---------------------------------------------------------------------------
# construct / iterate
# ---------------------------------------------------------------------------


def _construct(path: str):
    """The configuration space and the operator built from a construction JSON file."""
    from . import construction
    space, weights = construction.construction_from_json(construction.load_json(path))
    return space, construction.build_operator(space, weights)


def cmd_construct(args) -> int:
    from . import construction
    space, op = _construct(args.input)
    connected = len(space.components) == 1
    identity = construction.is_identity(op)
    pf, pm = op.tensors.pf, op.tensors.pm  # as arrays: dump_json formats each tensor once
    construction.dump_json({"n": op.n, "nu": op.nu, "pf": pf, "pm": pm}, args.output)
    print(f"n={op.n} nu={op.nu}")
    print(f"connected: {str(connected).lower()}")
    print(f"identity: {str(identity).lower()}")
    return EXIT_OK


def _operator_from_args(args) -> tuple[BisexualOperator, dict]:
    from . import construction
    # The parameters each source reads: a file holds its own heredity.
    reads = dict(operator=(), construction=(), two_type=("a", "b"), four_type=("a", "b", "c", "d"))
    given = [name for name in reads if getattr(args, name) not in (None, False)]
    if len(given) != 1:
        raise SchemaError("operator", "exactly one of --operator, --construction, --two-type, "
                          "--four-type")
    source = given[0].replace("_", "-")  # its flag's name
    values = _param_values(args, reads[given[0]], source=f"--{source}")
    if source == "operator":
        doc = construction.load_json(args.operator)
        return construction.operator_from_json(doc), {"kind": "operator-json", "path": args.operator}
    if source == "construction":
        _, op = _construct(args.construction)
        return op, {"kind": "construction-json", "path": args.construction}
    if source == "two-type":
        op = two_types.lift_operator(two_types.TwoTypeParams(**values))
    else:  # the four-type operator acts on every slice: ``construction_doc`` reads no slice sum
        p = four_types.FourTypeParams(**values, a0=CASE_DEFAULTS["a0"], c0=CASE_DEFAULTS["c0"])
        op = four_types.lift_operator(p)
    return op, {"kind": source, **values}


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
    if args.grid < 0 or args.grid == 1:
        raise SchemaError("grid", f"--grid must be 0 or >= 2, got {args.grid}")
    if args.grid and case.planar_block is None:
        raise SchemaError("grid", f"--case {args.case} has no planar map to search; omit --grid")
    if args.grid**2 > GRID_SEEDS_CAP:
        raise SizeOverflowError(f"--grid {args.grid} makes {args.grid**2} seeds, "
                                f"above the bound of {GRID_SEEDS_CAP}")
    if not args.grid:  # nothing compares to --abs-eps; the two-type segments hold for any a, b
        unread = ("a", "b", "abs_eps") if args.case == "two-type" else ("abs_eps",)
        grid = "" if case.planar_block is None else " without --grid; only --grid reads it"
        _reject(args, unread, f"not read by fixed-points --case {args.case}{grid}")
    if args.case == "two-type":
        doc = {"case": "two-type", "segments": two_types.FIXED_SEGMENTS}
    elif args.case == "four-type":
        block = case.planar_block(p)[1]
        points = four_types.fixed_points(block)
        residuals = [max(abs(n - o) for n, o in zip(block.step(pt), pt)) for pt in points]
        doc = {"case": "four-type", "critical": four_types.pair_side(block.det) == 0,
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


def _kind_doc(block: four_types.PairBlock, point) -> dict:
    """A fixed point's ``fixed_kind`` and its Jacobian's eigenvalue moduli, largest first."""
    moduli = np.abs(np.linalg.eigvals(four_types.pair_jacobian(*block, *point)))
    return {"kind": four_types.fixed_kind(block, point),
            "eigen_moduli": sorted(moduli.tolist(), reverse=True)}


def cmd_classify(args) -> int:
    case, p = CASES[args.case], _planar_params(args)
    stepper, block = case.planar_block(p)
    if args.case == "two-type":
        point = _two_type_point("0,0" if args.state is None else args.state)
        if not dynamics.is_fixed(stepper.step, point, _tolerance(args)):
            raise ValueError(f"{point} is not fixed: one step moves it by more than --abs-eps")
        doc = {"case": "two-type", "state": list(point), **_kind_doc(block, point)}
    else:
        if args.state is not None:
            raise SchemaError("state", "--state is not read by --case four-type, which "
                              "classifies every fixed point of its slice")
        _reject(args, ("abs_eps",), "not read by classify --case four-type, whose kinds "
                "come from the sign of det M")
        points = [{"point": list(pt), **_kind_doc(block, pt)}
                  for pt in four_types.fixed_points(block)]
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
    p = case.params(**_param_values(args, case.names, fixed), **fixed)
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
    stepper = case.planar_block(params)[0]  # stacked, so no step builds a record
    run = dynamics.iterate_batch(type(stepper).step, starts.T, short_tol, params=stepper,
                                 store_cap=400)
    names = [regime for regime, _ in regimes for _ in fan]
    heads = [f"{names[k]},{k % len(fan)},{i}"
             for k, traj in enumerate(run.trajectories) for i in traj.state_steps]
    yield from _float_rows(heads, np.concatenate([traj.states for traj in run.trajectories]))


def _certified_run(case: Case, params, starts: np.ndarray, tol: Tolerance, match_eps: float):
    """verify's batch of the (B, d) ``starts`` under the stacked ``params``: the run, the
    (B,) thresholds and each row's ``case.certificate``.  A row stops on the move at which
    its error bound by ``case.stop_rate`` is ``BOUND_SHARE`` of ``match_eps``, or on
    ``tol.iter_eps`` when that is larger or the row has no rate (NaN, which ``fmax`` skips)."""
    rate, kappa = case.stop_rate(params, starts)
    eps = np.fmax(tol.iter_eps, BOUND_SHARE * match_eps * (1.0 - rate) / kappa)
    run = dynamics.iterate_batch(case.params.step, starts.T, tol, params=params, eps=eps)
    return run, eps, case.certificate(params, starts, run.end)


def cmd_verify(args) -> int:
    """Closed-form limits against brute-force iteration on a grid of parameter cells,
    ``--starts`` random starts each, all stepped as one batch (``_certified_run``);
    ``VERIFY_HELP``, the command's help, states its stop rule and its pass rule."""
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
    regimes = [(regime, _params(args, **overrides))
               for regime, overrides in (case.portrait if args.portrait is not None else ())]
    rng = np.random.default_rng(args.seed)
    axis = np.linspace(0.05, 0.95, args.grid)
    u, v = case.verify_axes
    # The first cell's parameters check the flags that every cell shares.  Then one
    # (cells,) array per field, and one row per start, a cell's starts together.
    first = _params(args, **{u: axis[0].item(), v: axis[0].item()})
    axes = [axis if name in (u, v) else np.array([getattr(first, name)]) for name in case.names]
    columns = dict(zip(case.names, _grid(axes, np.arange(args.grid**2)).T))
    # Critical-line: a block on det M = 0 with u > 0, whose fixed set crosses its box.
    on_line = np.any([(four_types.pair_side(block.det) == 0) & (block.u > 0.0)
                      for block, _ in case.params(**columns).blocks], axis=0)
    params = case.params(**{name: np.repeat(c, args.starts) for name, c in columns.items()})
    starts = case.sample(params, rng)
    limits = _predict(case, params, starts, tol)
    # One batch steps every start; each cell keeps its starts' largest coordinate
    # gap to the closed form, their summed steps, whether all converged, whether
    # every observed rate kept within its rate, and the largest rate, observed rate
    # and error bound, or None when a start has no rate.
    per_cell = (len(on_line), args.starts)
    run, _, (rate, observed, bound) = _certified_run(case, params, starts, tol, args.match_eps)
    gaps = np.abs(run.end - limits.T).max(axis=0).reshape(per_cell).max(axis=1)
    converged = run.converged.reshape(per_cell).all(axis=1)
    in_rate = ~(observed > rate + RATE_ALLOWANCE)  # and every row without a rate
    fields = {u: columns[u].tolist(), v: columns[v].tolist(),
              "kind": np.where(on_line, "critical-line", "closed-form").tolist(),
              "max_mismatch": gaps.tolist(), "converged": converged.tolist(),
              "steps": run.steps_taken.reshape(per_cell).sum(axis=1).tolist(),
              "pass": (converged & (gaps <= args.match_eps)
                       & in_rate.reshape(per_cell).all(axis=1)).tolist()}
    for name, values in zip(("rate", "observed_rate", "error_bound"), (rate, observed, bound)):
        values = np.where(np.isnan(rate), np.nan, values).reshape(per_cell).max(axis=1).tolist()
        fields[name] = [None if math.isnan(value) else value for value in values]
    cells = [dict(zip(fields, row)) for row in zip(*fields.values())]
    report = {
        "case": args.case,
        "grid": args.grid,
        "starts": args.starts,
        "seed": args.seed,
        "match_eps": args.match_eps,
        "tolerance": asdict(tol),
        "cells": cells,
        "n_cells": len(cells),
        "n_pass": sum(fields["pass"]),
        "max_mismatch": max(fields["max_mismatch"], default=0.0),
        "pass": all(fields["pass"]),
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

    Each block is one field table, which ``_csv_block`` writes in one join.  A row's
    fields are its cell's parameter texts and its start's texts, each group joined
    once and picked by index, its status, the ``float_texts`` of its limits and its
    class label.  The status is ``ValueError`` for parameters outside (0, 1), else
    ``FixedPointInputError`` for a start that one step moves by at most
    ``--abs-eps``, else ``ok``, the one status with limits: other rows leave the
    limit and class fields empty.
    """
    case = CASES[args.case]
    tol = _tolerance(args)
    text = _start_text(args, SWEEP_STARTS)
    if text.startswith("grid:") and case.grid_starts is not None:
        try:
            starts = case.grid_starts(int(text[5:]))
        except ValueError:  # int's, or linspace's for a count < 0
            raise SchemaError(case.start_flag, f"expected 'grid:N' with N >= 0, "
                              f"got {text!r}") from None
    else:
        starts = [case.parse_start(text)]
    # Only the four-type case has start-determined parameters, and its sweep takes one start.
    fixed = case.fixes(starts[0]) if starts else {}
    ranges = _param_values(args, case.names, fixed)
    axes = [np.array([fixed[n]] if n in fixed else _parse_range(ranges[n])) for n in case.names]
    start_columns, limit_columns = case.sweep_columns
    start_array = np.array(starts).reshape(len(starts), len(start_columns))
    # Each start and label as text once.  The labels hold no quote or line
    # break, so only a comma makes csv quote one.
    start_texts = _joined(float_texts(start_array))
    labels = np.array([f'"{label}"' if "," in label else label for label in case.labels],
                      dtype=object)
    statuses = np.array(["ok", "FixedPointInputError", "ValueError"], dtype=object)

    def lines():
        total = math.prod(map(len, axes)) * len(starts)
        for first in range(0, total, SWEEP_BLOCK_ROWS):
            rows = np.arange(first, min(first + SWEEP_BLOCK_ROWS, total))
            head, start = np.divmod(rows, len(starts))
            table = _grid(axes, np.arange(head[0], head[-1] + 1))
            head -= head[0]  # each row's index into ``table``
            p = case.params(**dict(zip(case.names, table[head].T)))
            limits, fixed_rows, invalid = case.predict(p, start_array[start], tol)
            blank = invalid | fixed_rows  # the rows without limits
            status = statuses[np.where(invalid, 2, fixed_rows)]
            fields = np.concatenate([_joined(float_texts(table))[head, None],
                                     start_texts[start, None], status[:, None],
                                     float_texts(limits), labels[case.label(p, limits), None]],
                                    axis=1)
            fields[blank, -1 - len(limit_columns):] = ""  # no limit and no class
            yield _csv_block(fields)

    header = [*case.names, *start_columns, "status", *limit_columns, "class"]
    _write_lines(args.output, header, lines())
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------

SWEEP_BLOCK_ROWS = 4096  # rows of a sweep block; about the floats of a trajectory block
VERIFY_HELP = f"""\
Pair closed-form limits with brute-force iteration on a --grid x --grid grid of
parameter cells, --starts random starts each, stepped as one batch.

Stop rule: each start stops once one step moves it by at most its own
threshold, fixed before iterating from the map and the start: the move m at
which the error bound m / (1 - q) would be {BOUND_SHARE} of --match-eps.  q bounds the
start's rate: 1 - |L - (1-b)| for a two-type start of level L = (1-b) x0 + a y0;
for a four-type start, the larger spectral radius of its two blocks' Jacobians
at their attracting corners, with moves measured in the norm of their left
Perron vectors.  Critical-line starts, starts with a block whose |det M| is at
most {four_types.RATE_BAND}, and starts whose threshold would fall below --iter-eps stop on
--iter-eps.

Each cell reports, as the largest over its starts and null when a start has
no rate: rate, the certified rate at the end state; observed_rate, the ratio
of the next two moves from the end state; and error_bound, the next move
over one minus the rate, a bound on the end state's max-norm distance to the
true limit.  A cell passes when every start converged within --max-iters,
its max_mismatch to the closed form is at most --match-eps, and no start's
observed_rate exceeds its rate by more than {RATE_ALLOWANCE}.
"""
CASE_DEFAULTS = {"a": 0.3, "b": 0.3, "c": 0.3, "d": 0.3, "a0": 0.5, "c0": 0.5}
SWEEP_STARTS = {"state": "0.2,0.3", "x0": "0.2"}  # of a sweep whose start flag is not given
NEGATIVE_VALUE = re.compile(r"-\.?\d")


@functools.cache  # one per process: its many add_argument calls cost more than a predict
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsobp",
        description="Bisexual-population quadratic stochastic operators: "
        "construction, simulation, fixed-point analysis and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, cases=None, params=None, kind=float, params_help=None,
                seed_help=None):
        """A subcommand with its --case choices, parameter flags (None when left
        out; ``params``, their defaults, becomes ``args.param_defaults``),
        tolerance flags and, given ``seed_help``, a --seed flag."""
        cmd = sub.add_parser(name, help=about)
        # Read '-' then a digit, as in the range -1:2:7 or -1e-3, as a value, not an
        # option; argparse's own pattern takes only plain negative numbers so.
        cmd._negative_number_matcher = NEGATIVE_VALUE
        cmd.set_defaults(param_defaults=params or {})
        if cases is not None:
            cmd.add_argument("--case", choices=cases, required=True)
        for flag in params or {}:
            cmd.add_argument(f"--{flag}", type=kind, default=None, help=params_help)
        # Tolerance flags left out are None, and take ``Tolerance``'s defaults.  iterate
        # tests only its moves, against --iter-eps; construct's identity line uses the default.
        if name not in ("construct", "iterate"):
            cmd.add_argument("--abs-eps", type=float, help="comparison epsilon")
        if name in ("iterate", "verify"):  # the commands that iterate
            cmd.add_argument("--iter-eps", type=float, help="iteration stop threshold")
            cmd.add_argument("--max-iters", type=int, help="iteration budget")
        if seed_help is not None:
            cmd.add_argument("--seed", type=int, default=42, help=seed_help)
        return cmd

    cmd = command("construct", "build an operator from a construction JSON",
                  seed_help="ignored: the construction draws nothing at random")
    cmd.add_argument("--input", required=True, help="construction JSON path")
    cmd.add_argument("--output", required=True, help="operator JSON path")

    cmd = command("iterate", "iterate an operator from a state",
                  params=dict.fromkeys("abcd", 0.5),
                  seed_help="recorded in the summary; iteration draws nothing at random")
    cmd.add_argument("--operator", default=None, help="operator JSON path")
    cmd.add_argument("--construction", default=None, help="construction JSON path")
    cmd.add_argument("--two-type", action="store_true", help="inline two-type params")
    cmd.add_argument("--four-type", action="store_true", help="inline four-type params")
    cmd.add_argument("--state", required=True, help="'x1,..;y1,..'")
    cmd.add_argument("--trajectory", default=None, help="trajectory CSV path")
    cmd.add_argument("--summary", default=None, help="summary JSON path (default stdout)")

    cmd = command("fixed-points", "fixed points of a case map", list(CASES), CASE_DEFAULTS)
    cmd.add_argument("--grid", type=int, default=0, help="two-type and four-type only: seeds "
                     "per axis of the numerical fixed-point search (≥ 2; 0 skips it)")
    cmd.add_argument("--output", default=None)

    cmd = command("classify", "stability classes of fixed points, from the "
                  "sign of their pair block's det M", ["two-type", "four-type"], CASE_DEFAULTS)
    cmd.add_argument("--state", default=None, help="two-type: point to classify at (default 0,0)")
    cmd.add_argument("--output", default=None)

    cmd = command("predict", "closed-form trajectory limit; a start that one step "
                  "moves by at most --abs-eps is fixed and exits 2", list(CASES), CASE_DEFAULTS)
    cmd.add_argument("--state", default=None, help="initial state")
    cmd.add_argument("--x0", type=float, default=None, help="critical-line start")
    cmd.add_argument("--output", default=None)

    cmd = command("verify", "pair closed-form limits with brute-force iteration",
                  ["two-type", "four-type"], {"b": 0.3, "d": 0.4, "a0": 0.5, "c0": 0.5, "a": 0.3},
                  params_help="parameters the grid leaves fixed; two-type --a/--b set the portrait",
                  seed_help="seed of the random starts")
    cmd.description = VERIFY_HELP
    cmd.formatter_class = argparse.RawDescriptionHelpFormatter
    cmd.add_argument("--grid", type=int, default=10)
    cmd.add_argument("--starts", type=int, default=3, help="random starts per cell")
    cmd.add_argument("--match-eps", type=float, default=DEFAULT_MATCH_EPS)
    cmd.add_argument("--report", required=True, help="report JSON path")
    cmd.add_argument("--portrait", default=None, help="phase-portrait CSV path")

    cmd = command("sweep", "batch closed-form predictions over parameter grids",
                  list(CASES), dict.fromkeys(CASE_DEFAULTS, "0.3"), str, "value or lo:hi:count")
    cmd.add_argument("--state", default=None,
                     help="start state or grid:N (two-type); default 0.2,0.3")
    cmd.add_argument("--x0", default=None, help="critical-line start or grid:N; default 0.2")
    cmd.add_argument("--output", required=True, help="sweep CSV path")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        print(f"input error: {args.command}: unrecognized arguments: {' '.join(unknown)}",
              file=sys.stderr)
        return EXIT_INPUT
    # Looked up at each call, not held by the one parser: a wrapper set on the module sees it.
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(args)
    except (QsobpError, ValueError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
