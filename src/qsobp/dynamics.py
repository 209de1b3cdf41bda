"""Trajectory iteration, fixed-point classification and fixed-point search.

One engine, ``iterate_batch``, steps every trajectory: a (d, B) array holds
B states of d coordinates, one column per trajectory, and each step maps the
whole array at once.  Each column stops on its own, when one step moves it by
at most ``tol.iter_eps`` in the max norm (converged) or after
``tol.max_iters`` steps (not converged; that is a result, not an error).
Finished columns leave the batch, together with their per-row parameters, so
the last steps cost only what the slowest trajectories need.  Convergence is
detected from successive-state distance, never from distance to a known
limit, so the same loop serves operators whose limits are unknown.

``iterate_map`` (a bare coordinate map) and ``iterate`` (a bisexual
operator) run one trajectory through the engine and return its thinned
history as a ``Trajectory``.  Planar fixed points are found by one batched
refinement of a seed lattice and classified from the moduli of the roots of
their Jacobian's characteristic polynomial, that is, of its two eigenvalues.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from operator import sub
from typing import Callable, Sequence

import numpy as np

from .construction import BisexualOperator
from .errors import DimensionMismatchError
from .simplex import DEFAULT_TOLERANCE, PopulationState, Tolerance, make_state

# At most this many states are kept per trajectory; longer runs are thinned
# to every k-th state, always retaining the first and the last.
TRAJECTORY_STORE_CAP = 10_000

Point = tuple[float, ...]
MapStep = Callable[[Point], Point]
# (per-row parameters or None, (d, B) states) -> the (d, B) next states, as an
# array or as d rows.
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


def stack_params(rows: Sequence):
    """One parameters dataclass whose fields hold the rows' values as (B,) arrays.

    The dataclass validates the arrays as it validates numbers.
    """
    kind = type(rows[0])
    return kind(**{f.name: np.array([getattr(p, f.name) for p in rows]) for f in fields(kind)})


def _narrow(params, keep: np.ndarray):
    """Stacked parameters restricted to the rows where ``keep`` holds."""
    return replace(params, **{f.name: getattr(params, f.name)[keep] for f in fields(params)})


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


def iterate_batch(
    step: BatchStep,
    states,
    tol: Tolerance = DEFAULT_TOLERANCE,
    *,
    params=None,
    store_cap: int | None = None,
) -> BatchRun:
    """Iterate ``step`` from each column of ``states`` until it stops moving.

    Each column stops when one step moves it by at most ``tol.iter_eps`` in
    the max norm (converged) or after ``tol.max_iters`` steps (not
    converged).  Its ``steps_taken`` is the index of its first state that no
    longer moves, so a fixed start reports zero steps.

    Args:
        step: The map, called as ``step(params, states)`` on the columns still
            moving.
        states: Initial coordinates, shape (d, B).
        tol: Iteration thresholds and budget.
        params: Per-row parameters, a dataclass whose fields are (B,) arrays
            (see ``stack_params``), narrowed to the rows still moving; or None.
        store_cap: When given, every column's ``Trajectory`` is kept, thinned
            to every k-th state once it would hold more than ``store_cap``.
    """
    state = np.array(states, dtype=float)
    width = state.shape[1]
    end = state.copy()
    steps_taken = np.zeros(width, dtype=np.int64)
    converged = np.zeros(width, dtype=bool)
    histories = [None] * width if store_cap is not None else None
    rows = np.arange(width)  # the column of ``end`` behind each column of ``state``
    stored = [(0, state)]
    stride = 1
    total = 0
    while rows.size and total < tol.max_iters:
        nxt = np.asarray(step(params, state))
        moved = np.maximum.reduce(np.abs(nxt - state))
        total += 1
        if histories is not None and total % stride == 0:
            stored.append((total, nxt))
            if len(stored) > store_cap:
                stored = stored[::2]
                stride *= 2
        state = nxt
        done = moved <= tol.iter_eps
        if not np.count_nonzero(done):
            continue
        finished = rows[done]
        end[:, finished] = state[:, done]
        steps_taken[finished] = total - 1
        converged[finished] = True
        keep = ~done
        if histories is not None:
            for column in np.flatnonzero(done):
                histories[rows[column]] = _trajectory(stored, column, total, state[:, column], True)
        rows, state = rows[keep], state[:, keep]
        if not rows.size:
            break
        if histories is not None:
            stored = [(t, s[:, keep]) for t, s in stored]
        if params is not None:
            params = _narrow(params, keep)
    end[:, rows] = state
    steps_taken[rows] = total
    if histories is not None:
        for column, row in enumerate(rows):
            histories[row] = _trajectory(stored, column, total, state[:, column], False)
    return BatchRun(
        end=end,
        steps_taken=steps_taken,
        converged=converged,
        trajectories=tuple(histories) if histories is not None else None,
    )


def iterate_map(
    step: MapStep, start: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE
) -> Trajectory:
    """Iterate ``step`` from ``start`` until successive states stop moving.

    One trajectory through ``iterate_batch``, with the same stopping rule,
    and its history thinned at ``TRAJECTORY_STORE_CAP`` stored states.
    ``step`` takes and returns coordinates; it sees them as a (d, 1) column.
    """
    run = iterate_batch(
        lambda _, s: step(s), np.reshape(start, (-1, 1)), tol, store_cap=TRAJECTORY_STORE_CAP
    )
    return run.trajectories[0]


def is_fixed(step: MapStep, point: Sequence[float], tol: Tolerance) -> bool:
    """Whether one step moves ``point`` by at most ``tol.abs_eps`` in the max norm.

    The one rule by which every closed-form predictor decides that its start
    is already fixed.
    """
    return max(map(abs, map(sub, step(point), point))) <= tol.abs_eps


def iterate(
    op: BisexualOperator, start: PopulationState, tol: Tolerance = DEFAULT_TOLERANCE
) -> Trajectory:
    """Iterate a bisexual operator on its coordinates, female block first.

    ``make_state`` checks that every stored state lies on the simplexes.
    """
    if start.dims != (op.n, op.nu):
        raise DimensionMismatchError(f"state dims {start.dims}, operator ({op.n},{op.nu})")
    n = op.n
    run = iterate_map(
        lambda s: np.concatenate(op.apply_raw(s[:n, 0], s[n:, 0]))[:, None], start.coords(), tol
    )
    for row in run.states.tolist():
        make_state(row[:n], row[n:])
    return run


# ---------------------------------------------------------------------------
# Planar fixed-point classes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticCharacteristic:
    """Coefficients of the monic quadratic q(t) = t^2 + B t + C."""

    B: float
    C: float

    def roots(self) -> tuple[complex, complex]:
        disc = self.B * self.B - 4.0 * self.C
        if disc >= 0.0:
            s = math.sqrt(disc)
            return ((-self.B + s) / 2.0, (-self.B - s) / 2.0)
        s = math.sqrt(-disc)
        return (complex(-self.B / 2.0, s / 2.0), complex(-self.B / 2.0, -s / 2.0))


class StabilityKind(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    SADDLE = "saddle"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class FixedPointClass:
    kind: StabilityKind
    eigen_moduli: tuple[float, float]


def classify_fixed_point_2d(
    matrix: Sequence[Sequence[float]], tol: Tolerance = DEFAULT_TOLERANCE
) -> FixedPointClass:
    """Classify a planar fixed point from its 2x2 Jacobian.

    A point is hyperbolic when no eigenvalue modulus sits within
    ``tol.abs_eps`` of one; hyperbolic points are attracting, repelling or
    saddle according to whether both, neither or exactly one modulus is
    below one.  Near-unit moduli are reported as non-hyperbolic together
    with both moduli so the caller can inspect the marginal direction.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise DimensionMismatchError(f"expected a 2x2 matrix, got {m.shape}")
    qc = QuadraticCharacteristic(B=-float(np.trace(m)), C=float(np.linalg.det(m)))
    moduli = tuple(sorted((abs(r) for r in qc.roots()), reverse=True))
    if any(abs(mod - 1.0) <= tol.abs_eps for mod in moduli):
        kind = StabilityKind.NON_HYPERBOLIC
    elif all(mod < 1.0 for mod in moduli):
        kind = StabilityKind.ATTRACTING
    elif all(mod > 1.0 for mod in moduli):
        kind = StabilityKind.REPELLING
    else:
        kind = StabilityKind.SADDLE
    return FixedPointClass(kind=kind, eigen_moduli=moduli)


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
    if grid < 2:
        raise ValueError("grid must be >= 2")
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
    kept: list[tuple[float, float]] = []
    for pt in sorted(zip(np.clip(x[ok], 0.0, w).tolist(), np.clip(y[ok], 0.0, h).tolist())):
        if all(max(abs(pt[0] - q[0]), abs(pt[1] - q[1])) > 10.0 * tol.abs_eps for q in kept):
            kept.append(pt)
    return kept


def conserved_quantity_drift(trajectory, functional: Callable[..., float]) -> float:
    """Largest deviation of ``functional`` from its initial value along a ``Trajectory``.

    The functional receives each stored state as a list of Python floats.
    """
    values = [functional(s) for s in trajectory.states.tolist()]
    return max(abs(v - values[0]) for v in values)
