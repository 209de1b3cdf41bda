"""Trajectory iteration, Jacobians and fixed-point classification.

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
operator) run one trajectory through the engine and keep its thinned history.
Planar fixed points are classified from the moduli of the roots of their
Jacobian's characteristic polynomial, that is, of its two eigenvalues.
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
class MapTrajectory:
    """Iteration record of a bare coordinate map.

    ``states`` may be thinned; ``state_steps`` holds the true step index of
    each stored state (first and last are always present).
    """

    states: tuple[Point, ...]
    state_steps: tuple[int, ...]
    converged: bool
    limit: Point | None
    steps_taken: int


@dataclass(frozen=True)
class Trajectory:
    """Iteration record of a bisexual operator."""

    states: tuple[PopulationState, ...]
    state_steps: tuple[int, ...]
    converged: bool
    limit: PopulationState | None
    steps_taken: int


@dataclass(frozen=True)
class BatchRun:
    """Iteration record of a batch, one entry or column per trajectory.

    ``end`` is the (d, B) array of last states.  ``history`` is None unless
    the caller asked for it; then it holds, per trajectory, the true step
    indices of its stored states and those states as a (k, d) array.
    """

    end: np.ndarray
    steps_taken: np.ndarray
    converged: np.ndarray
    history: tuple[tuple[tuple[int, ...], np.ndarray], ...] | None = None


def stack_params(rows: Sequence):
    """One parameters dataclass whose fields hold the rows' values as (B,) arrays.

    The dataclass validates the arrays as it validates numbers.
    """
    kind = type(rows[0])
    return kind(**{f.name: np.array([getattr(p, f.name) for p in rows]) for f in fields(kind)})


def _narrow(params, keep: np.ndarray):
    """Stacked parameters restricted to the rows where ``keep`` holds."""
    return replace(params, **{f.name: getattr(params, f.name)[keep] for f in fields(params)})


def _history(stored: list, column: int, total: int, last: np.ndarray):
    """One trajectory's stored step indices and states, ending at step ``total``."""
    steps = [t for t, _ in stored]
    states = [s[:, column] for _, s in stored]
    if steps[-1] != total:
        steps.append(total)
        states.append(last)
    return tuple(steps), np.stack(states)


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
        store_cap: When given, every trajectory's history is kept, thinned to
            every k-th state once it would hold more than ``store_cap``.
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
                histories[rows[column]] = _history(stored, column, total, state[:, column])
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
            histories[row] = _history(stored, column, total, state[:, column])
    return BatchRun(
        end=end,
        steps_taken=steps_taken,
        converged=converged,
        history=tuple(histories) if histories is not None else None,
    )


def iterate_map(
    step: MapStep, start: Sequence[float], tol: Tolerance = DEFAULT_TOLERANCE
) -> MapTrajectory:
    """Iterate ``step`` from ``start`` until successive states stop moving.

    One trajectory through ``iterate_batch``, with the same stopping rule,
    and its history thinned at ``TRAJECTORY_STORE_CAP`` stored states.
    ``step`` takes and returns coordinates; it sees them as a (d, 1) column.
    """
    run = iterate_batch(
        lambda _, s: step(s), np.reshape(start, (-1, 1)), tol, store_cap=TRAJECTORY_STORE_CAP
    )
    ((state_steps, stored),) = run.history
    states = tuple(map(tuple, stored.tolist()))
    converged = bool(run.converged[0])
    return MapTrajectory(
        states=states,
        state_steps=state_steps,
        converged=converged,
        limit=states[-1] if converged else None,
        steps_taken=int(run.steps_taken[0]),
    )


def is_fixed(step: MapStep, point: Sequence[float], tol: Tolerance) -> bool:
    """Whether one step moves ``point`` by at most ``tol.abs_eps`` in the max norm.

    The one rule by which every closed-form predictor decides that its start
    is already fixed.
    """
    return max(map(abs, map(sub, step(point), point))) <= tol.abs_eps


def operator_step(op: BisexualOperator) -> MapStep:
    """The operator as a map on columns of concatenated (female, male) coordinates."""

    def step(s: np.ndarray) -> np.ndarray:
        return np.column_stack([np.concatenate(op.apply_raw(c[: op.n], c[op.n :])) for c in s.T])

    return step


def iterate(
    op: BisexualOperator, start: PopulationState, tol: Tolerance = DEFAULT_TOLERANCE
) -> Trajectory:
    """Iterate a bisexual operator from a population state."""
    if start.dims != (op.n, op.nu):
        raise DimensionMismatchError(f"state dims {start.dims}, operator ({op.n},{op.nu})")
    raw = iterate_map(operator_step(op), start.coords(), tol)

    def unpack(s: Point) -> PopulationState:
        return make_state(s[: op.n], s[op.n :])

    return Trajectory(
        states=tuple(unpack(s) for s in raw.states),
        state_steps=raw.state_steps,
        converged=raw.converged,
        limit=unpack(raw.limit) if raw.limit is not None else None,
        steps_taken=raw.steps_taken,
    )


def jacobian(op: BisexualOperator, state: PopulationState) -> np.ndarray:
    """Analytic Jacobian of the full coordinate map at ``state``.

    The map is quadratic, so the partials are linear:
    d x'_j / d x_i = sum_k pf[i,k,j] y_k, d x'_j / d y_k = sum_i pf[i,k,j] x_i,
    and likewise for the male block.  Rows are outputs (female block first),
    columns are inputs.
    """
    if state.dims != (op.n, op.nu):
        raise DimensionMismatchError(f"state dims {state.dims}, operator ({op.n},{op.nu})")
    x = np.array(state.female.probs)
    y = np.array(state.male.probs)
    pf, pm = op.tensors.pf, op.tensors.pm
    jxx = np.einsum("ikj,k->ji", pf, y)
    jxy = np.einsum("ikj,i->jk", pf, x)
    jyx = np.einsum("ikl,k->li", pm, y)
    jyy = np.einsum("ikl,i->lk", pm, x)
    return np.block([[jxx, jxy], [jyx, jyy]])


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

Step2D = Callable[[tuple[float, float]], tuple[float, float]]


def _fd_residual_jacobian(step: Step2D, p: np.ndarray, h: float = 1e-6) -> np.ndarray:
    j = np.empty((2, 2))
    for col in range(2):
        hi = p.copy()
        lo = p.copy()
        hi[col] += h
        lo[col] -= h
        fhi = np.array(step((hi[0], hi[1]))) - hi
        flo = np.array(step((lo[0], lo[1]))) - lo
        j[:, col] = (fhi - flo) / (2.0 * h)
    return j


def _refine_fixed_point(
    step: Step2D, seed: tuple[float, float], tol: Tolerance
) -> tuple[float, float] | None:
    """Damped least-squares descent on the fixed-point residual."""
    p = np.array(seed, dtype=float)
    residual = np.array(step((p[0], p[1]))) - p
    damping = 1e-3
    for _ in range(80):
        if np.abs(residual).max() <= 0.01 * tol.abs_eps:
            break
        j = _fd_residual_jacobian(step, p)
        lhs = j.T @ j + damping * np.eye(2)
        try:
            delta = np.linalg.solve(lhs, -j.T @ residual)
        except np.linalg.LinAlgError:
            damping *= 10.0
            continue
        candidate = p + delta
        cand_residual = np.array(step((candidate[0], candidate[1]))) - candidate
        if np.dot(cand_residual, cand_residual) < np.dot(residual, residual):
            p, residual = candidate, cand_residual
            damping = max(damping * 0.3, 1e-12)
        else:
            damping *= 10.0
            if damping > 1e10:
                break
    if np.abs(residual).max() <= tol.abs_eps:
        return (float(p[0]), float(p[1]))
    return None


def find_fixed_points_grid(
    step: Step2D,
    domain: tuple[tuple[float, float], tuple[float, float]],
    grid: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> list[tuple[float, float]]:
    """Seed a lattice over ``domain`` and refine each seed to a fixed point.

    Points whose final max-norm residual exceeds ``tol.abs_eps`` are
    dropped, as are points escaping the domain; survivors are deduplicated
    within ``10 * tol.abs_eps``.  A continuum of fixed points comes back as
    a cloud of nearby points, one per basin of the refinement.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    (x_lo, x_hi), (y_lo, y_hi) = domain
    margin = 1e-9
    candidates: list[tuple[float, float]] = []
    for xs in np.linspace(x_lo, x_hi, grid):
        for ys in np.linspace(y_lo, y_hi, grid):
            p = _refine_fixed_point(step, (float(xs), float(ys)), tol)
            if p is None:
                continue
            if not (x_lo - margin <= p[0] <= x_hi + margin):
                continue
            if not (y_lo - margin <= p[1] <= y_hi + margin):
                continue
            candidates.append(p)
    candidates.sort()
    kept: list[tuple[float, float]] = []
    for p in candidates:
        if all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 10.0 * tol.abs_eps for q in kept):
            kept.append(p)
    return kept


def conserved_quantity_drift(trajectory, functional: Callable[..., float]) -> float:
    """Maximal deviation of ``functional`` from its initial value along a trajectory.

    Accepts either an operator ``Trajectory`` or a ``MapTrajectory``; the
    functional receives the stored states as-is.
    """
    states = trajectory.states
    if not states:
        raise ValueError("trajectory has no states")
    base = functional(states[0])
    return max(abs(functional(s) - base) for s in states)
