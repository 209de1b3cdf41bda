"""Trajectory iteration and fixed-point search.

One engine, ``iterate_batch``, steps every trajectory: a (d, B) array holds
B states of d coordinates, one column per trajectory, and each step maps the
whole array at once.  Each column stops on its own, when one step moves it by
at most its threshold eps in the max norm (converged) or after
``tol.max_iters`` steps (not converged; that is a result, not an error).
Each column's threshold is its entry of a (B,) array, narrowed with the
columns and the per-row parameters: ``tol.iter_eps`` in every entry, or the
caller's own array when it can bound a row's distance to its limit by its last
move, as ``verify`` does with each case's closed-form rate, before iterating.
Either way the rule is one, |move| <= eps.
The batch takes a block of up to ``BLOCK_STEPS`` steps into one buffer, then
tests every move of the block in one array pass; a NaN move fails the test,
as ``np.maximum`` keeps it.  A column's end state, steps and flag are those
of the first move in the block that passes, and the columns that finished
leave the batch at the block's end with their per-row parameters.  They may
be stepped up to the block's end, and those states are thrown away; columns
never mix, so no result depends on the block length, and the last blocks
cost only what the slowest trajectories need.  Convergence is detected from
successive-state distance, never from distance to a known limit, so the same
loop serves operators whose limits are unknown.

A numpy step costs about the same on 1 column as on 64, so a batch with
per-row parameters and no histories hands its rows, at the first block end
with at most ``TAIL_WIDTH`` left, to a scalar tail that finishes them one at
a time on Python floats: the same ``step`` on a list of floats, with the
row's parameters as floats.  Python floats and numpy float64 round each +, -, * alike, and the
step runs the same operations in the same order, so every state, step count
and convergence flag is the one the numpy loop gives.  The tail tests a move
on coordinate 0 first and on every coordinate only when that passes: most
steps of a slow row fail on coordinate 0 already, and a move that fails there
fails the whole test, so the rule is the numpy loop's.  A params class with a
``finish`` method, the two-type row loop ``TwoTypeParams.finish``, finishes its
rows there when the batch steps its own ``step``: that loop holds the map with
the row's a and b as locals and the move test written for d = 2, and gives what
``_finish`` gives.  It exists because two-type verify's slowest rows take
thousands of tail steps each, at about 125 ns a step there against 250 ns
through ``_finish``'s call of ``step``.  The numpy blocks test
every coordinate in one pass; testing coordinate 0 first there, and gathering
only the columns that pass it, was measured slower on the benchmark's verify
blocks (d = 2) and no faster at d = 8.

``iterate_map`` (a bare coordinate map) and ``iterate`` (a bisexual
operator) run one trajectory through the engine and return its thinned
history as a ``Trajectory``.  Planar fixed points are found by one batched
refinement of a seed lattice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .simplex import DEFAULT_TOLERANCE, Tolerance, check_open_unit, check_states, make_state
if TYPE_CHECKING:
    from .construction import BisexualOperator

# At most this many states are kept per trajectory; longer runs are thinned
# to every k-th state, always retaining the first and the last.
TRAJECTORY_STORE_CAP = 10_000
# A batch with stacked parameters and no histories finishes its last rows
# one at a time on Python floats once at most this many are left.
TAIL_WIDTH = 16
# A batch takes at most BLOCK_STEPS steps before it tests their moves in one
# array pass, and fewer when the block's states would take more than
# BLOCK_BYTES, which keeps the buffer's memory flat on wide batches; the cap
# bounds the steps a single trajectory takes past its finish.  On the
# closed-form verify rounds of the benchmark, tail widths of 12 to 24, caps
# of 16 to 64 and budgets of 128 to 512 KiB all ran within 5 % of these three.
# With the tail's coordinate-0 test, tail widths of 12, 20, 24 and 32 won 4, 7,
# 7 and 6 of 10 alternating pairs of in-process rounds against 16, and caps of
# 16 and 64 won 6 of 10 each against 32, so neither changed.
BLOCK_STEPS = 32
BLOCK_BYTES = 256 * 1024

Point = tuple[float, ...]
MapStep = Callable[[Point], Point]
# (per-row parameters or None, (d, B) states, a slot of the engine's block
# buffer) -> the (d, B) next states, as an array or as d rows.
BatchStep = Callable[[object, np.ndarray], object]


@dataclass(frozen=True)
class Trajectory:
    """Iteration record of one trajectory.

    ``states`` is the (k, d) array of stored states, possibly thinned;
    ``state_steps`` holds the true step index of each (first and last are
    always present).  ``limit`` is the last state if the run converged.
    """

    states: np.ndarray
    state_steps: tuple[int, ...]
    converged: bool
    steps_taken: int
    limit: Point | None


@dataclass(frozen=True)
class BatchRun:
    """Iteration record of a batch, one entry or column per trajectory.

    ``end`` is the (d, B) array of last states.  ``trajectories`` is None
    unless the caller asked for histories; then it holds one ``Trajectory``
    per column.
    """

    end: np.ndarray
    steps_taken: np.ndarray
    converged: np.ndarray
    trajectories: tuple[Trajectory, ...] | None = None


def _unchecked(params, values):
    """Parameters of ``params``' class that hold the (name, value) pairs ``values``, set
    without ``__post_init__``'s check, so rows outside (0, 1) still do not raise."""
    p = object.__new__(type(params))
    p.__dict__.update(values)
    return p


def _narrowed(keep, rows, state, params, eps):
    """``rows``, the (d, B) ``state``, the per-row ``params`` and the (B,) thresholds
    ``eps`` at the columns ``keep``."""
    if params is not None:
        params = _unchecked(params, [(name, v[keep]) for name, v in vars(params).items()])
    return rows[keep], state[:, keep], params, eps[keep]


def _finish(step, p, state: list, total: int, eps: float, max_iters: int):
    """``iterate_batch``'s loop for one row on Python floats, from step ``total``:
    its last state, ``steps_taken`` and ``converged``.  The move test is the
    engine's: every |u - v| <= eps, the row's threshold.  It tests coordinate 0
    alone first, then, only when that passes, every coordinate up to the first
    that fails, which a NaN does (a ``max`` would drop it)."""
    while total < max_iters:
        nxt = step(p, state)
        total += 1
        if abs(nxt[0] - state[0]) <= eps:
            for u, v in zip(nxt, state):
                if not abs(u - v) <= eps:
                    break
            else:
                return nxt, total - 1, True
        state = nxt
    return state, total, False


def _trajectory(stored: list, column: int, total: int, last: np.ndarray, converged: bool):
    """One column's record; it stopped moving at step ``total`` when ``converged``."""
    steps = [t for t, _ in stored]
    states = [s[:, column] for _, s in stored]
    if steps[-1] != total:
        steps.append(total)
        states.append(last)
    steps_taken = total - 1 if converged else total
    limit = tuple(last.tolist()) if converged else None
    return Trajectory(np.stack(states), tuple(steps), converged, steps_taken, limit)


def iterate_batch(step: BatchStep, states, tol: Tolerance = DEFAULT_TOLERANCE, *, params=None,
                  store_cap: int | None = None, eps=None) -> BatchRun:
    """Iterate ``step`` from each column of ``states`` until it stops moving, in blocks
    of steps and, with ``params`` and no ``store_cap``, a scalar tail, by the one rule
    the module docstring states.  A column's ``steps_taken`` is the index of its first
    state that no longer moves, so a fixed start reports zero steps.

    Args:
        step: The map, called as ``step(params, states)`` on the (d, B)
            columns not yet dropped, a slot of the block's buffer; a column
            that finished in the block may be stepped on to the block's end.
        states: Initial coordinates, shape (d, B) with d >= 1.
        tol: Iteration thresholds and budget.
        params: Per-row parameters, a dataclass whose fields are (B,) arrays,
            narrowed with the columns; or None.
        eps: Per-row thresholds, a (B,) array narrowed with the columns; or
            None for ``tol.iter_eps`` in every column.
        store_cap: When given, every column's ``Trajectory`` is kept, thinned
            to every k-th state once it would hold more than ``store_cap``.
    """
    state = np.array(states, dtype=float)
    if not len(state):
        raise DimensionMismatchError(f"a state needs at least one coordinate, got {state.shape}")
    width = state.shape[1]
    end = state.copy()
    steps_taken = np.zeros(width, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)
    histories = [None] * width if store_cap is not None else None
    rows = np.arange(width)  # the column of ``end`` behind each column of ``state``
    stored = [(0, state)]
    stride = 1
    total = 0
    scalar_tail = params is not None and histories is None
    tail, max_iters = TAIL_WIDTH if scalar_tail else 0, tol.max_iters
    eps = np.full(width, tol.iter_eps) if eps is None else np.array(eps, dtype=float)
    while rows.size > tail and total < max_iters:
        k = min(BLOCK_STEPS, max(1, BLOCK_BYTES // state.nbytes), max_iters - total)
        block = np.empty((k + 1, *state.shape))
        block[0] = state
        for j in range(1, k + 1):
            block[j] = step(params, block[j - 1])
        moves = np.subtract(block[1:], block[:-1])
        # (k, B): whether each step moved each column by at most its eps; NaN never does.
        still = np.maximum.reduce(np.abs(moves, out=moves), axis=1) <= eps
        done = still.any(axis=0)
        columns = np.flatnonzero(done)
        at = still[:, columns].argmax(axis=0)  # the first move each of them passed
        if histories is not None:  # the block's steps in order, stored as if taken one by one
            finishing = {}
            for column, j in zip(columns.tolist(), at.tolist()):
                finishing.setdefault(j + 1, []).append(column)
            for j in range(1, k + 1):
                if (total + j) % stride == 0:
                    stored.append((total + j, block[j].copy()))  # a view would hold the block
                    if len(stored) > store_cap:
                        stored = stored[::2]
                        stride *= 2
                for column in finishing.get(j, ()):
                    last = block[j, :, column]
                    histories[rows[column]] = _trajectory(stored, column, total + j, last, True)
        state = block[k]
        if columns.size:
            finished = rows[columns]
            end[:, finished] = block[at + 1, :, columns].T
            steps_taken[finished] = total + at
            converged[finished] = True
            if histories is not None:
                stored = [(t, s[:, ~done]) for t, s in stored]
            rows, state, params, eps = _narrowed(~done, rows, state, params, eps)
        total += k
    if scalar_tail:
        names = list(vars(params))
        values = zip(*(v.tolist() for v in vars(params).values()))
        finish = getattr(type(params), "finish", None)  # its own step's loop, written out
        if finish is None or step is not type(params).step:
            finish = functools.partial(_finish, step)
        for row, start, row_values, e in zip(rows.tolist(), state.T.tolist(), values, eps.tolist()):
            p = _unchecked(params, zip(names, row_values))  # the row's, as Python floats
            end[:, row], steps_taken[row], converged[row] = finish(
                p, start, total, e, max_iters)
    else:
        end[:, rows] = state
        steps_taken[rows] = total
    if histories is not None:
        for column, row in enumerate(rows):
            histories[row] = _trajectory(stored, column, total, state[:, column], False)
    return BatchRun(end, steps_taken, converged, None if histories is None else tuple(histories))


def iterate_map(
    step: MapStep, start: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE
) -> Trajectory:
    """Iterate ``step`` from ``start`` until successive states stop moving.

    One trajectory through ``iterate_batch``, with the same stopping rule,
    and its history thinned at ``TRAJECTORY_STORE_CAP`` stored states.
    ``step`` takes and returns coordinates; it sees them as a (d, 1) column,
    a slot of the engine's block buffer, and may be called up to
    ``BLOCK_STEPS`` - 1 times past the step at which the trajectory stops.
    """
    run = iterate_batch(
        lambda _, s: step(s), np.reshape(start, (-1, 1)), tol, store_cap=TRAJECTORY_STORE_CAP
    )
    return run.trajectories[0]


def is_fixed(step: MapStep, point, tol: Tolerance):
    """Whether one step moves ``point``, d numbers, by at most ``tol.abs_eps`` in the
    max norm; for a (d, B) array of B points, the (B,) mask.  The one rule by which
    every closed-form predictor decides that its start is already fixed."""
    return np.maximum.reduce(np.abs(np.subtract(step(point), point))) <= tol.abs_eps


def predicted(p, coords: np.ndarray, limits: Callable[[], Sequence], tol: Tolerance):
    """What a closed-form predictor returns for the columns of the (d, B) ``coords``
    under ``p``: the (B, d) limits of the d columns ``limits()`` gives, NaN in the rows
    of the (B,) mask of starts that ``is_fixed`` and of the (B,) mask of ``p`` outside
    (0, 1).  Both are evaluated with numpy's warnings off, as a row outside (0, 1) may
    overflow or give NaN there, and is blanked."""
    invalid = ~np.broadcast_to(check_open_unit(p), coords.shape[1:])
    with np.errstate(all="ignore"):
        fixed = is_fixed(p.step, coords, tol) & ~invalid
        limits = np.stack(np.broadcast_arrays(*limits(), coords[0])[:-1], axis=1)
    limits[invalid | fixed] = np.nan
    return limits, fixed, invalid


def iterate(op: BisexualOperator, female: Sequence[float], male: Sequence[float],
            tol: Tolerance = DEFAULT_TOLERANCE) -> Trajectory:
    """Iterate a bisexual operator on its coordinates, female block first, from the state
    with blocks ``female`` and ``male``: ``make_state`` checks it before its (n, ν) split
    is compared with the operator's, and ``check_states`` checks every stored state."""
    start = make_state(female, male)
    dims = (len(female), len(male))
    if dims != (op.n, op.nu):
        raise DimensionMismatchError(f"state dims {dims}, operator ({op.n},{op.nu})")
    run = iterate_map(op.apply_raw, start, tol)
    check_states(run.states, op.n)
    return run


# ---------------------------------------------------------------------------
# Numerical fixed-point search for planar maps.
# ---------------------------------------------------------------------------


def find_fixed_points_grid(
    step: Callable,
    jacobian: Callable,
    box: tuple[float, float],
    grid: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[tuple[float, float]]:
    """Fixed points of a planar map, refined from a grid x grid lattice of seeds on [0,w] x [0,h].

    ``step`` maps (2, B) points to their images, ``jacobian`` to the (2, 2, B)
    Jacobians there.  All seeds descend at once by damped least squares on
    r = step(p) - p until max|r| <= abs_eps / 100.  Points left with
    max|r| > abs_eps or more than 1e-9 outside the box are dropped; the rest
    are clipped into the box and deduplicated within ``10 * abs_eps``, so a
    continuum of fixed points comes back as a cloud, one point per basin.
    """
    w, h = box
    xs, ys = np.meshgrid(np.linspace(0.0, w, grid), np.linspace(0.0, h, grid), indexing="ij")
    p = np.stack([xs.ravel(), ys.ravel()])
    r = np.asarray(step(p)) - p
    damping = np.full(p.shape[1], 1e-3)
    for _ in range(80):
        active = (np.abs(r).max(axis=0) > 0.01 * tol.abs_eps) & (damping <= 1e10)
        if not active.any():
            break
        j = np.asarray(jacobian(p)) - np.eye(2)[:, :, None]
        (a, b), (_, d) = np.einsum("kib,kjb->ijb", j, j) + damping * np.eye(2)[:, :, None]
        g = np.einsum("kib,kb->ib", j, r)
        det = a * d - b * b
        solvable = active & (det > 0.0)
        det = np.where(solvable, det, 1.0)
        candidate = p + np.stack([b * g[1] - d * g[0], b * g[0] - a * g[1]]) / det
        cand_r = np.asarray(step(candidate)) - candidate
        better = solvable & ((cand_r * cand_r).sum(axis=0) < (r * r).sum(axis=0))
        p, r = np.where(better, candidate, p), np.where(better, cand_r, r)
        damping = np.where(better, np.maximum(damping * 0.3, 1e-12), damping)
        damping[active & ~better] *= 10.0
    margin = 1e-9
    x, y = p
    ok = (np.abs(r).max(axis=0) <= tol.abs_eps) & (-margin <= x) & (x <= w + margin)
    ok &= (-margin <= y) & (y <= h + margin)
    points = sorted(zip(np.clip(x[ok], 0.0, w).tolist(), np.clip(y[ok], 0.0, h).tolist()))
    return _spread(points, 10.0 * tol.abs_eps)


def _spread(points: list, radius: float) -> list:
    """The planar ``points``, sorted and with coordinates >= 0, each kept unless a
    point kept before it lies within Chebyshev distance ``radius``.

    Kept points are filed by their cell, the floor of each coordinate over the
    cell size, and a point is compared only with those up to two cells out on
    each axis, and on the first axis only on its left, where the points before
    it lie.  A point within ``radius`` lies at most one cell out, and the
    rounding of the quotients moves a cell by at most one more: cells are no
    finer than 2**-50 of the largest coordinate, so every quotient stays below
    2**50, where it rounds by at most 1/8.
    """
    size = max(radius, 2.0**-50 * max(map(max, points), default=0.0))
    near = [(di, dj) for di in (-2, -1, 0) for dj in (-2, -1, 0, 1, 2)]
    cells: dict[tuple[int, int], list] = {}
    kept = []
    for pt in points:
        x, y = pt
        i, j = math.floor(x / size), math.floor(y / size)
        if all(max(abs(x - u), abs(y - v)) > radius
               for di, dj in near for u, v in cells.get((i + di, j + dj), ())):
            kept.append(pt)
            cells.setdefault((i, j), []).append(pt)
    return kept
