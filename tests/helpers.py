"""Reference helpers that only the tests use.

The simplex rule that ``make_state`` applies, stated on its own, random
states, a state metric, one operator step on a population state, the
operator's literal tensor contraction, the drift of a functional along a
trajectory, uniform weights, parameters from cell weights, rows of
parameters stacked into one, the four-type parameter swap, the type-3/4
block step and survivor label, a closed-form predictor on one start, the
full operator Jacobian, a brute-force periodic-point scan, a hypothesis
strategy of small constructions, the iteration engine's rule stated one
step at a time and the grid search's dedupe against every kept point.
The package itself needs none of them.
"""

import math
from dataclasses import fields
from functools import reduce
from operator import add
from typing import Callable, Sequence

import numpy as np
from hypothesis import strategies as st

from qsobp.construction import BisexualOperator, ConfigurationSpace, WeightPair, make_graph
from qsobp.dynamics import BatchRun, Trajectory, is_fixed
from qsobp.errors import (DimensionMismatchError, FixedPointInputError, NegativeEntryError,
                          NotNormalizedError)
from qsobp.four_types import SURVIVOR_LABELS, FourTypeParams, survivor_code
from qsobp.simplex import (DEFAULT_TOLERANCE, NEGATIVITY_EPS, NORMALIZATION_EPS, Tolerance,
                           make_state)
from qsobp.two_types import TwoTypeParams


def simplex_violation(female: Sequence[float], male: Sequence[float]):
    """The (error type, message) that a state with blocks ``female`` and ``male``
    must raise, or None when it is one.  For the female block, then the male
    block: no entry, then a total that the Python floats add up to in order
    (as ``sum`` did before Python 3.12) farther than NORMALIZATION_EPS from one,
    then a ``min`` below -NEGATIVITY_EPS."""
    for block in (female, male):
        values = [float(v) for v in block]
        if not values:
            return DimensionMismatchError, "a distribution needs at least one entry"
        total = reduce(add, values, 0)
        if not (abs(total - 1.0) <= NORMALIZATION_EPS):
            return NotNormalizedError, f"entries sum to {total}, expected 1"
        smallest = min(values)
        if not (smallest >= -NEGATIVITY_EPS):
            return NegativeEntryError, f"entry {smallest} < -{NEGATIVITY_EPS}"
    return None


def state_distance(s1: np.ndarray, s2: np.ndarray) -> float:
    """Max-norm distance between two states over all coordinates."""
    if np.shape(s1) != np.shape(s2):
        raise DimensionMismatchError(f"state shapes {np.shape(s1)} vs {np.shape(s2)}")
    return float(np.max(np.abs(np.subtract(s1, s2))))


def random_state(rng: np.random.Generator, n: int, nu: int) -> np.ndarray:
    """Uniform (flat Dirichlet) random points of the two simplexes."""
    return make_state(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(nu)))


@st.composite
def constructions(draw):
    """A space of at most 81 cells (5 vertices with 2 alleles, 4 with 3) with
    a random proper female split and weights in [0.5, 2]."""
    alleles = draw(st.integers(2, 3))
    vertices = draw(st.integers(1, 5 if alleles == 2 else 4))
    pairs = [(a, b) for a in range(1, vertices + 1) for b in range(a + 1, vertices + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    size = alleles**vertices
    females = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
    space = ConfigurationSpace.build(make_graph(vertices, edges), alleles, females)
    weight = st.floats(0.5, 2.0)
    weights = WeightPair(
        {i: draw(weight) for i in space.females}, {j: draw(weight) for j in space.males}
    )
    return space, weights


def apply(op: BisexualOperator, state: np.ndarray) -> np.ndarray:
    """One operator step on a population state; the result is validated as a state."""
    if np.shape(state) != (op.n + op.nu,):
        raise DimensionMismatchError(f"state shape {np.shape(state)}, operator ({op.n},{op.nu})")
    s = op.apply_raw(np.asarray(state))
    return make_state(s[: op.n], s[op.n :])


def quadratic_form(op: BisexualOperator, s: np.ndarray) -> np.ndarray:
    """The literal tensor contraction of the operator, defined for arbitrary (d,) coordinates."""
    x, y = s[: op.n], s[op.n :]
    new_x = np.einsum("ikj,i,k->j", op.tensors.pf, x, y)
    return np.concatenate((new_x, np.einsum("ikl,i,k->l", op.tensors.pm, x, y)))


def conserved_quantity_drift(trajectory, functional: Callable[..., float]) -> float:
    """Largest deviation of ``functional`` from its initial value along a ``Trajectory``.

    The functional receives each stored state as a list of Python floats.
    """
    values = [functional(s) for s in trajectory.states.tolist()]
    return max(abs(v - values[0]) for v in values)


def uniform_weights(space: ConfigurationSpace) -> WeightPair:
    return WeightPair({i: 1.0 for i in space.females}, {j: 1.0 for j in space.males})


def two_type_from_weights(female: Sequence[float], male: Sequence[float]) -> TwoTypeParams:
    """Parameters from positive cell weights: a = wf1/(wf1+wf2), b = wm1/(wm1+wm2)."""
    wf1, wf2 = female
    wm1, wm2 = male
    return TwoTypeParams(a=wf1 / (wf1 + wf2), b=wm1 / (wm1 + wm2))


def four_type_from_weights(
    female: Sequence[float], male: Sequence[float], a0: float, c0: float
) -> FourTypeParams:
    """Parameters from positive cell weights, pair by pair."""
    wf1, wf2, wf3, wf4 = female
    wm1, wm2, wm3, wm4 = male
    return FourTypeParams(
        a=wf1 / (wf1 + wf2),
        b=wf3 / (wf3 + wf4),
        c=wm1 / (wm1 + wm2),
        d=wm3 / (wm3 + wm4),
        a0=a0,
        c0=c0,
    )


def invariant_line_level(p: TwoTypeParams, s) -> float:
    """The two-type map's conserved level x/a + y/(1-b); constant along every trajectory."""
    x, y = s
    return x / p.a + y / (1.0 - p.b)


def mirror_params(p: FourTypeParams) -> FourTypeParams:
    """The parameter swap turning the type-3/4 block into the type-1/2 block."""
    return FourTypeParams(a=p.b, b=p.a, c=p.d, d=p.c, a0=1.0 - p.a0, c0=1.0 - p.c0)


def sub34_step(p: FourTypeParams, s):
    """The type-3/4 block's step."""
    return p.blocks[1][0].step(s)


def survivor_label(p: FourTypeParams) -> str:
    """Compact tag of which types persist in the predicted limit."""
    return SURVIVOR_LABELS[survivor_code(p)]


def stack_params(rows: Sequence):
    """One parameters dataclass whose fields hold the rows' values as (B,) arrays:
    stacked parameters, which ``iterate_batch`` and the closed-form predictors take."""
    kind = type(rows[0])
    return kind(**{f.name: np.array([getattr(p, f.name) for p in rows]) for f in fields(kind)})


def predict_one(predictor, p, start, tol=DEFAULT_TOLERANCE) -> tuple:
    """A batched closed-form predictor on one start, coordinates or a number:
    its limit as a tuple, or ``FixedPointInputError`` when the start is fixed."""
    limits, fixed, invalid = predictor(p, np.reshape(start, (1, -1)), tol)
    assert not invalid[0]
    if fixed[0]:
        raise FixedPointInputError(f"{start} is already fixed")
    return tuple(limits[0].tolist())


def jacobian(op: BisexualOperator, state: np.ndarray) -> np.ndarray:
    """Analytic Jacobian of the full coordinate map at ``state``.

    The map is quadratic, so the partials are linear:
    d x'_j / d x_i = sum_k pf[i,k,j] y_k, d x'_j / d y_k = sum_i pf[i,k,j] x_i,
    and likewise for the male block.  Rows are outputs (female block first),
    columns are inputs.
    """
    if np.shape(state) != (op.n + op.nu,):
        raise DimensionMismatchError(f"state shape {np.shape(state)}, operator ({op.n},{op.nu})")
    x, y = np.asarray(state[: op.n]), np.asarray(state[op.n :])
    pf, pm = op.tensors.pf, op.tensors.pm
    jxx = np.einsum("ikj,k->ji", pf, y)
    jxy = np.einsum("ikj,i->jk", pf, x)
    jyx = np.einsum("ikl,k->li", pm, y)
    jyy = np.einsum("ikl,i->lk", pm, x)
    return np.block([[jxx, jxy], [jyx, jyy]])


def trace_determinant_moduli(matrix) -> tuple[float, float]:
    """The eigenvalue moduli of a 2x2 matrix, largest first, as the roots of
    t^2 - trace t + det: the reference for the moduli that ``classify`` reports.
    Near a double root it loses half its digits."""
    m = np.asarray(matrix, dtype=float)
    trace, det = float(np.trace(m)), float(np.linalg.det(m))
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        roots = ((trace + s) / 2.0, (trace - s) / 2.0)
    else:
        s = math.sqrt(-disc)
        roots = (complex(trace / 2.0, s / 2.0), complex(trace / 2.0, -s / 2.0))
    return tuple(sorted((abs(r) for r in roots), reverse=True))


def scan_periodic_points(
    step: Callable,
    period: int,
    grid: int = 100_000,
    domain: tuple[float, float] = (0.0, 1.0),
    refine_eps: float = 1e-10,
) -> list[float]:
    """Roots of step^period(x) = x on the domain that are not fixed points.

    The composite map is evaluated by repeated application on a uniform
    grid (never expanded into polynomial coefficients), sign changes are
    bracketed and refined by bisection to ``refine_eps``, and a root that
    ``dynamics.is_fixed`` calls fixed under ``DEFAULT_TOLERANCE`` is
    dropped.  ``step`` must accept numpy arrays as well as scalars.
    """
    lo, hi = domain

    def composite(x):
        for _ in range(period):
            x = step(x)
        return x

    xs = np.linspace(lo, hi, grid)
    gap = composite(xs) - xs
    roots: list[float] = []
    for i in range(grid - 1):
        gi, gj = gap[i], gap[i + 1]
        if gi == 0.0:
            roots.append(float(xs[i]))
            continue
        if gi * gj >= 0.0:
            continue
        left, right = float(xs[i]), float(xs[i + 1])
        g_left = float(gi)
        while right - left > refine_eps:
            mid = 0.5 * (left + right)
            g_mid = float(composite(mid) - mid)
            if g_mid == 0.0:
                left = right = mid
                break
            if (g_left < 0.0) == (g_mid < 0.0):
                left, g_left = mid, g_mid
            else:
                right = mid
        roots.append(0.5 * (left + right))
    if gap[-1] == 0.0:
        roots.append(float(xs[-1]))
    return [r for r in roots if not is_fixed(lambda s: (step(s[0]),), (r,), DEFAULT_TOLERANCE)]


def reference_batch(step, states, tol: Tolerance, *, params=None, store_cap=None,
                    eps=None) -> BatchRun:
    """What ``dynamics.iterate_batch`` must return, by its rule stated one step at a
    time: every column is stepped at full width, never narrowed, and each move is
    tested right after its step.  A column finishes at the first step t that moves
    it by at most its threshold, its entry of the (B,) ``eps`` or else
    ``tol.iter_eps``, in every coordinate (a NaN move never does), with
    ``steps_taken`` t - 1, or after ``tol.max_iters`` steps, unconverged.  With
    ``store_cap`` the states of every column are stored at each multiple of a stride
    that starts at 1; once more than ``store_cap`` are stored, every other one is
    dropped, the first kept, and the stride doubles.  A column's history is what is
    stored when it finishes, then its last state if that was not stored."""
    state = np.array(states, dtype=float)
    width = state.shape[1]
    end = state.copy()
    steps_taken = np.full(width, tol.max_iters)
    converged = np.zeros(width, dtype=bool)
    finished = np.zeros(width, dtype=bool)
    histories = [None] * width
    stored, stride = [(0, state)], 1
    threshold = tol.iter_eps if eps is None else np.asarray(eps, dtype=float)

    def history(column, t, last, converged):
        steps = [s for s, _ in stored]
        rows = [v[:, column] for _, v in stored]
        if steps[-1] != t:
            steps.append(t)
            rows.append(last)
        limit = tuple(last.tolist()) if converged else None
        steps_taken = t - 1 if converged else t
        return Trajectory(np.stack(rows), tuple(steps), converged, steps_taken, limit)

    # Finished columns keep being stepped, so they may overflow.
    with np.errstate(all="ignore"):
        for t in range(1, tol.max_iters + 1):
            if finished.all():
                break
            nxt = np.array(step(params, state), dtype=float)
            if store_cap is not None and t % stride == 0:
                stored.append((t, nxt))
                if len(stored) > store_cap:
                    stored, stride = stored[::2], 2 * stride
            done = ~finished & (np.abs(nxt - state) <= threshold).all(axis=0)
            for column in np.flatnonzero(done).tolist():
                end[:, column], steps_taken[column], converged[column] = nxt[:, column], t - 1, True
                if store_cap is not None:
                    histories[column] = history(column, t, nxt[:, column], True)
            finished |= done
            state = nxt
        for column in np.flatnonzero(~finished).tolist():
            end[:, column] = state[:, column]
            if store_cap is not None:
                histories[column] = history(column, tol.max_iters, state[:, column], False)
    trajectories = tuple(histories) if store_cap is not None else None
    return BatchRun(end, steps_taken, converged, trajectories)


def spread_reference(points, radius: float) -> list:
    """What ``dynamics._spread`` must keep of the sorted ``points``: each point unless
    a point kept before it lies within Chebyshev distance ``radius``, checked
    against every kept point."""
    kept = []
    for pt in points:
        if all(max(abs(pt[0] - q[0]), abs(pt[1] - q[1])) > radius for q in kept):
            kept.append(pt)
    return kept
