"""Property tests of the closed-form cases and of operators built from graphs.

Core claims, for in-domain parameters and starts of the two-type, the
four-type and the critical-line case:
  - a predictor marks a start fixed exactly when dynamics.is_fixed holds
    for it under the same tolerance
  - on stacked rows that include parameters outside (0, 1), fixed starts
    and the critical lines, a predictor gives each row, bit for bit and
    masks included, what its one-row call gives, and what the call with
    the row's parameters as numbers gives
  - every predicted limit is a fixed point of the case's step to 1e-12
  - a four-type block on its critical line (a+c = 1 or b+d = 1) keeps its
    x+y in the limit to 1e-12, and the limit is where iteration ends to 1e-9
  - one step conserves x/a + y/(1-b) (two-type) and the four slice sums
    (four-type) to 1e-12
  - a batch of trajectories with per-row parameters ends each row where the
    row run alone ends, bit for bit, after as many steps and with the same
    convergence flag, whether the budget lets it converge or cuts it off;
    this holds for batches that start in the scalar tail or reach it mid-run,
    for rows that finish before, at or after the handoff, for groups of rows
    that finish on one step while the batch is still wide, and for rows whose
    parameters are 0, 1, -0.5 or NaN, which the numpy engine steps alone
  - off a+c = 1 (by at least 1e-6) the four-type block's corner (a0, c0)
    attracts when a+c > 1 and (0, 0) when a+c < 1, and the other corner is a
    saddle or repelling; on the line every fixed point is non-hyperbolic
    with exactly one modulus within abs_eps of one
  - every point the grid search refines lies in its map's box and moves by
    at most abs_eps under one step; off a+c = 1 the four-type block's
    points are its two corners, on it they lie on its fixed curve to 1e-7

and, for random graphs, allele counts, female splits and weights:
  - build_heredity equals, bit for bit, the tensors normalized pair by pair
    over compatible_sets with a Python sum
  - the operator step agrees with the literal contraction to 1e-15

and for the writers and the trajectory check:
  - float_texts gives float.__repr__ of each entry of an array of any
    shape, empty ones included, keeping -0.0 apart from 0.0
  - dump_json writes an operator document with the bytes of json.dump with
    indent 2 and sorted keys, and a final newline, whether its tensors are
    nested lists or arrays
  - load_json decodes an operator or construction document as json.load
    does, leaf types and the sign of zero included, with one float object
    per distinct number text
  - the trajectory CSV has the bytes csv.writer gives for the same rows
  - make_state raises the error type and message that helpers.simplex_violation
    names, female block first, for blocks that are empty, off one by a shift
    across or along either tolerance, infinite or NaN; check_states raises the
    one of the first row that has one
"""

import csv
import io
import json
import math
import os
import tempfile
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qsobp import cli, dynamics
from qsobp.cli import CASES
from qsobp.construction import (build_heredity, build_operator, compatible_sets, dump_json,
                                load_json)
from qsobp.dynamics import StabilityKind, classify_fixed_point_2d
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CriticalMapParams,
    FourTypeParams,
    critical_fixed_points,
    critical_root,
    fixed_curve,
    limit_branch,
    predict_limit,
    predict_limit_critical,
    slice_sums,
    sub12_fixed_points,
    sub12_jacobian,
)
from qsobp.simplex import Tolerance, check_states, float_texts, make_state
from qsobp.two_types import TwoTypeParams, invariant_line_level
from qsobp.two_types import predict_limit as predict_limit_two

from helpers import constructions, predict_one, simplex_violation, stack_params

# Reproducible examples, and no example database written next to the tests.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
# The pair-by-pair reference costs about cells**3 restriction lookups, so
# constructions get fewer examples.
CONSTRUCTION = settings(PROPERTY, max_examples=60)

unit = st.floats(0.01, 0.99)
# Coordinates and splits that hit the boundary, where the fixed points lie, half the time.
fraction = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
tolerance = st.builds(Tolerance, abs_eps=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]))


def _moved(step, point):
    return max(abs(n - o) for n, o in zip(step(point), point))


def _predicts(predictor, p, start, tol):
    """The predicted limit, or None when the predictor calls the start fixed."""
    try:
        return predict_one(predictor, p, start, tol)
    except FixedPointInputError:
        return None


def _slice_state(a0, c0, fx1, fx3, fy1, fy3):
    """The state on the slice (a0, c0) that splits each pair at the given fractions."""
    x1, x3, y1, y3 = fx1 * a0, fx3 * (1.0 - a0), fy1 * c0, fy3 * (1.0 - c0)
    return make_state((x1, a0 - x1, x3, 1.0 - a0 - x3), (y1, c0 - y1, y3, 1.0 - c0 - y3))


@st.composite
def four_type_cases(draw):
    """Parameters and a slice state; half the time a+c = 1, b+d = 1 or both."""
    state = _slice_state(draw(unit), draw(unit), *(draw(fraction) for _ in range(4)))
    sums = slice_sums(state.tolist())
    a, b, c, d = (draw(unit) for _ in range(4))
    lines = draw(st.sampled_from(["", "", "", "12", "34", "12 34"]))
    c = 1.0 - a if "12" in lines else c
    d = 1.0 - b if "34" in lines else d
    return FourTypeParams(a, b, c, d, a0=sums[0], c0=sums[2]), state


@PROPERTY
@given(unit, unit, st.tuples(fraction, fraction), tolerance)
def test_two_type_predictor(a, b, start, tol):
    p = TwoTypeParams(a, b)
    limit = _predicts(predict_limit_two, p, start, tol)
    assert (limit is None) == dynamics.is_fixed(p.step, start, tol)
    if limit is not None:
        assert _moved(p.step, limit) <= 1e-12
    level = invariant_line_level(p, start)
    assert invariant_line_level(p, p.step(start)) == pytest.approx(level, rel=0, abs=1e-12)


@PROPERTY
@given(four_type_cases(), tolerance)
def test_four_type_predictor(case, tol):
    p, state = case
    limit = _predicts(predict_limit, p, state.tolist(), tol)
    assert (limit is None) == dynamics.is_fixed(p.step, state.tolist(), tol)
    if limit is not None:
        make_state(limit[:4], limit[4:])
        assert _moved(p.step, limit) <= 1e-12
        for i, side in zip((0, 2), limit_branch(p)):
            if side == 0:
                kept = limit[i] + limit[4 + i]
                assert kept == pytest.approx(state[i] + state[4 + i], rel=0, abs=1e-12)
    after = p.step(state.tolist())
    moved_sums = slice_sums(make_state(after[:4], after[4:]).tolist())
    assert max(abs(u - v) for u, v in zip(moved_sums, slice_sums(state.tolist()))) <= 1e-12


@PROPERTY
@given(unit, unit, unit, st.one_of(st.none(), fraction), tolerance)
def test_critical_line_predictor(a, a0, c0, x0, tol):
    cp = CriticalMapParams(a, a0, c0)
    if x0 is None:  # the fixed point itself
        x0 = critical_fixed_points(cp)[0]
    limit = _predicts(predict_limit_critical, cp, x0, tol)
    assert (limit is None) == dynamics.is_fixed(cp.step, (x0,), tol)
    if limit is not None:
        assert _moved(cp.step, limit) <= 1e-12


def test_critical_line_limits_are_where_iteration_ends():
    # A block off its line stays at least 0.05 away from it: closer, its
    # corner attracts so slowly that iteration stops short of it.
    rng = np.random.default_rng(2024)
    rows, starts, limits = [], [], []
    for _ in range(300):
        lines = rng.integers(3)  # 0: a+c = 1, 1: b+d = 1, 2: both
        a, b, c, d = rng.uniform(0.05, 0.95, 4)
        if lines != 1:
            c = 1.0 - a
        if lines != 0:
            d = 1.0 - b
        while lines == 0 and abs(b + d - 1.0) < 0.05:
            d = rng.uniform(0.05, 0.95)
        while lines == 1 and abs(a + c - 1.0) < 0.05:
            c = rng.uniform(0.05, 0.95)
        a0, c0 = rng.uniform(0.05, 0.95, 2)
        state = _slice_state(a0, c0, *rng.uniform(0.05, 0.95, 4))
        p = FourTypeParams(*map(float, (a, b, c, d)), a0=float(a0), c0=float(c0))
        rows.append(p)
        starts.append(state.tolist())
    params, starts = stack_params(rows), np.array(starts)
    limits, fixed, invalid = predict_limit(params, starts)
    assert not (fixed.any() or invalid.any())
    check_states(limits, 4)
    run = dynamics.iterate_batch(
        FourTypeParams.step, starts.T, Tolerance(iter_eps=1e-13, max_iters=10**5), params=params
    )
    assert run.converged.all()
    assert np.abs(run.end - limits.T).max() <= 1e-9


# Parameter values outside (0, 1) a tenth of the time each.
param = st.one_of(st.sampled_from([0.0, 1.0, -0.5, float("nan")]), unit, unit, unit, unit, unit)


@st.composite
def predictor_grids(draw):
    """A predictor, its parameters dataclass, 1-12 rows of parameter values and
    the (B, d) starts.  Rows hold invalid values, fixed starts and points on
    the critical lines a+c = 1, b+d = 1 and, on the section map, a = 1/2."""
    case = draw(st.sampled_from(["two-type", "four-type", "critical-line"]))
    rows, starts = [], []
    for _ in range(draw(st.integers(1, 12))):
        fixed = draw(st.booleans())
        if case == "two-type":
            rows.append({"a": draw(param), "b": draw(param)})
            x, y = draw(fraction), draw(fraction)
            starts.append(((x, 0.0) if draw(st.booleans()) else (1.0, y)) if fixed else (x, y))
        elif case == "four-type":
            # The slice sums of the start are the row's a0, c0, as sweep sets them.
            a0, c0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit)), draw(unit)
            if fixed:
                start = (a0, 0.0, 1.0 - a0, 0.0, c0, 0.0, 1.0 - c0, 0.0)
            else:
                start = _slice_state(a0, c0, *(draw(fraction) for _ in range(4))).tolist()
            sums = slice_sums(start)
            a, b, c, d = (draw(param) for _ in range(4))
            lines = draw(st.sampled_from(["", "12", "34", "12 34"]))
            c = 1.0 - a if "12" in lines else c
            d = 1.0 - b if "34" in lines else d
            rows.append({"a": a, "b": b, "c": c, "d": d, "a0": sums[0], "c0": sums[2]})
            starts.append(start)
        else:
            a = draw(st.one_of(st.just(0.5), param))
            a0, c0 = draw(param), draw(param)
            point = float(critical_root(*np.array([a, a0, c0, 1.0]))[0])
            rows.append({"a": a, "a0": a0, "c0": c0})
            starts.append((point,) if fixed and 0.0 <= point <= 1.0 else (draw(fraction),))
    return CASES[case], rows, np.array(starts)


@PROPERTY
@given(predictor_grids(), tolerance)
def test_a_batched_predictor_equals_its_one_row_calls(grid, tol):
    case, rows, starts = grid
    columns = {name: np.array([row[name] for row in rows]) for name in case.names}
    limits, fixed, invalid = case.predict(case.params(**columns), starts, tol)
    assert limits.shape == starts.shape and fixed.shape == invalid.shape == (len(rows),)
    for i, row in enumerate(rows):
        one = case.params(**{name: column[i : i + 1] for name, column in columns.items()})
        one_limits, one_fixed, one_invalid = case.predict(one, starts[i : i + 1], tol)
        assert one_limits.tobytes() == limits[i : i + 1].tobytes()
        assert (one_fixed[0], one_invalid[0]) == (fixed[i], invalid[i])
        # The masks are the rules that the parameters and starts are read by.
        assert invalid[i] == (not all(0.0 < v < 1.0 for v in row.values()))
        if invalid[i]:
            assert not fixed[i] and np.isnan(limits[i]).all()
            continue
        # Parameters as numbers: the scalar call is the same B = 1 call.
        p = case.params(**row)
        assert fixed[i] == dynamics.is_fixed(p.step, tuple(starts[i].tolist()), tol)
        scalar_limits, _, _ = case.predict(p, starts[i : i + 1], tol)
        assert scalar_limits.tobytes() == limits[i : i + 1].tobytes()
        assert np.isnan(limits[i]).all() == fixed[i]


@st.composite
def planar_cases(draw):
    """A case name and parameters: two-type, or four-type with half the
    examples on a+c = 1 and the rest at least 0.05 away from it."""
    if draw(st.booleans()):
        return "two-type", TwoTypeParams(draw(unit), draw(unit))
    a, c = draw(unit), draw(unit)
    if draw(st.booleans()):
        c = 1.0 - a
    else:
        # The residual's Jacobian at a corner has determinant a0 c0 (1-a-c).
        # Nearer to singular, seeds stop at residuals below abs_eps but too
        # far from the corner, and from each other, to be merged.
        assume(abs(a + c - 1.0) >= 0.05)
    a0, c0 = draw(st.floats(0.1, 0.9)), draw(st.floats(0.1, 0.9))
    return "four-type", FourTypeParams(a, 0.3, c, 0.3, a0=a0, c0=c0)


@settings(PROPERTY, max_examples=100)
@given(planar_cases(), st.integers(2, 6))
def test_grid_search_points_are_fixed_and_inside_the_box(case, grid):
    name, p = case
    step, jacobian, (w, h) = CASES[name].planar(p)
    tol = Tolerance()
    points = dynamics.find_fixed_points_grid(step, jacobian, (w, h), grid, tol)
    assert points
    for x, y in points:
        assert 0.0 <= x <= w and 0.0 <= y <= h
        assert _moved(step, (x, y)) <= tol.abs_eps
    if name == "two-type":
        return
    if limit_branch(p)[0]:
        np.testing.assert_allclose(points, [(0.0, 0.0), (w, h)], rtol=0, atol=1e-7)
    else:
        assert max(abs(y - fixed_curve(p, x)) for x, y in points) <= 1e-7


@st.composite
def off_line_blocks(draw):
    """Four-type parameters whose type-1/2 block lies at least 1e-6 off a+c = 1,
    half the time within 1e-2 of it.  Closer, a corner's modulus is within abs_eps of one."""
    a, a0, c0 = draw(unit), draw(unit), draw(unit)
    if draw(st.booleans()):
        c = draw(unit)
    else:
        c = 1.0 - a + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, -2.0))
    assume(0.0 < c < 1.0 and abs(a + c - 1.0) >= 1e-6)
    return FourTypeParams(a, draw(unit), c, draw(unit), a0, c0)


@PROPERTY
@given(off_line_blocks())
def test_off_the_critical_line_the_corner_on_the_side_of_a_plus_c_attracts(p):
    zero, corner = (
        classify_fixed_point_2d(sub12_jacobian(p, pt)).kind for pt in sub12_fixed_points(p)
    )
    attracting, other = (corner, zero) if p.a + p.c > 1.0 else (zero, corner)
    assert attracting is StabilityKind.ATTRACTING
    assert other in (StabilityKind.SADDLE, StabilityKind.REPELLING)


@PROPERTY
@given(unit, unit, unit, unit)
def test_on_the_critical_line_every_fixed_point_has_one_unit_modulus(a, a0, c0, b):
    p = FourTypeParams(a, b, 1.0 - a, b, a0, c0)
    points = sub12_fixed_points(p)
    assert len(points) == 11
    for point in points:
        verdict = classify_fixed_point_2d(sub12_jacobian(p, point))
        assert verdict.kind is StabilityKind.NON_HYPERBOLIC
        assert sum(abs(m - 1.0) <= Tolerance().abs_eps for m in verdict.eigen_moduli) == 1


@st.composite
def batch_rows(draw):
    """1-4 rows of (parameters, start coordinates) of one case, then one row
    whose start is a fixed point of its map."""
    case = draw(st.sampled_from(["two-type", "four-type", "critical-line"]))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if case == "two-type":
            rows.append((TwoTypeParams(draw(unit), draw(unit)), draw(st.tuples(fraction, fraction))))
        elif case == "four-type":
            p, state = draw(four_type_cases())
            rows.append((p, state.tolist()))
        else:
            rows.append((CriticalMapParams(draw(unit), draw(unit), draw(unit)), (draw(fraction),)))
    p = rows[0][0]
    if case == "two-type":
        fixed = (draw(fraction), 0.0)
    elif case == "four-type":
        fixed = (p.a0, 0.0, 1.0 - p.a0, 0.0, p.c0, 0.0, 1.0 - p.c0, 0.0)
    else:
        fixed = (critical_fixed_points(p)[0],)
    return rows + [(p, fixed)]


@settings(PROPERTY, max_examples=40)
@given(batch_rows())
def test_a_batch_equals_its_rows_run_alone(rows):
    step = type(rows[0][0]).step
    starts = np.array([start for _, start in rows]).T
    # 5 steps leave every moving start unconverged; 400 let many converge.
    for tol in (Tolerance(max_iters=5), Tolerance(max_iters=400)):
        params = stack_params([p for p, _ in rows])
        run = dynamics.iterate_batch(step, starts, tol, params=params)
        assert run.steps_taken[-1] == 0 and run.converged[-1]
        for column, (p, start) in enumerate(rows):
            alone = dynamics.iterate_batch(
                step, starts[:, [column]], tol, params=stack_params([p])
            )
            assert np.array_equal(run.end[:, column], alone.end[:, 0])
            assert run.steps_taken[column] == alone.steps_taken[0]
            assert run.converged[column] == alone.converged[0]
            # The one-row wrapper, stepping with the parameters as numbers.
            mapped = dynamics.iterate_map(p.step, start, tol)
            assert np.array_equal(run.end[:, column], mapped.states[-1])
            assert (run.steps_taken[column], run.converged[column]) == (
                mapped.steps_taken, mapped.converged
            )


def _batch_against_rows(kind, columns: dict, starts: list, tol: Tolerance):
    """One ``iterate_batch`` run of the rows of (B,) parameter ``columns`` from
    ``starts``, after requiring each row to end as the numpy engine ends it alone, bit
    for bit, with as many steps and the same flag: ``iterate_map`` stepping the row's
    parameters as numbers when they lie in (0, 1), else as (1,) arrays."""
    params = kind(**{name: np.array(column, dtype=float) for name, column in columns.items()})
    # A row outside (0, 1) may overflow, which numpy reports and Python floats do not.
    with np.errstate(over="ignore", invalid="ignore"):
        run = dynamics.iterate_batch(kind.step, np.array(starts, dtype=float).T, tol, params=params)
        for row, start in enumerate(starts):
            values = {name: column[row] for name, column in columns.items()}
            if all(0.0 < v < 1.0 for v in values.values()):
                step = kind(**values).step
            else:
                one = kind(**{name: np.array([v]) for name, v in values.items()})
                step = partial(kind.step, one)
            alone = dynamics.iterate_map(step, start, tol)
            assert run.end[:, row].tobytes() == alone.states[-1].tobytes()
            assert run.steps_taken[row] == alone.steps_taken
            assert run.converged[row] == alone.converged
    return run


def test_a_batch_hands_its_last_rows_to_the_scalar_tail_mid_run():
    """A two-type batch of 2 * TAIL_WIDTH + 5 rows: the numpy steps end once
    TAIL_WIDTH rows are left, and the rest finish one at a time on Python floats."""
    width = dynamics.TAIL_WIDTH
    late = (0.1, 0.7)
    valid = [(0.1, y) for y in np.linspace(0.05, 0.3, width).tolist()]  # 44 to 71 steps
    valid += [(0.3, 0.0), (1.0, 0.5)]  # fixed
    # ``late`` converges one step after its image, which is the last row the engine
    # steps; the slow rows converge in 247 to 432 steps.
    valid += [late, TwoTypeParams(0.5, 0.5).step(late)]
    valid += [(0.1, y) for y in np.linspace(0.72, 0.8, width - 4).tolist()]
    # The last row's first step moves x by 0 and y to NaN: a move test that
    # takes the max of the moves in order would call it converged.
    invalid = [((0.0, 0.5), (0.1, 0.5)), ((1.0, 0.5), (0.1, 0.5)), ((-0.5, 0.5), (0.1, 0.5)),
               ((math.nan, 0.5), (0.1, 0.5)), ((0.5, math.nan), (0.3, 0.0))]
    rows = [((0.5, 0.5), start) for start in valid] + invalid
    for max_iters in (300, 3000):
        tol = Tolerance(max_iters=max_iters)
        # Alone, the invalid rows are a batch that starts in the tail; ``run`` is
        # the whole batch's.
        for batch in (invalid, rows):
            columns = {"a": [a for (a, _), _ in batch], "b": [b for (_, b), _ in batch]}
            run = _batch_against_rows(TwoTypeParams, columns, [s for _, s in batch], tol)
        # The numpy steps each row takes part in; the engine stops after the step
        # that leaves at most TAIL_WIDTH rows.
        taken = run.steps_taken + run.converged
        handoff = np.sort(taken)[::-1][width]
        assert np.count_nonzero(taken > handoff) == width and handoff < max_iters
        assert (taken < handoff).any()  # converged before it
        assert (run.converged & (taken == handoff)).any()  # its last numpy step
        assert (run.converged & (taken == handoff + 1)).any()  # the first scalar step
        assert (run.converged & (taken > handoff + 1)).any()  # later in the tail
        assert (~run.converged & (taken == max_iters)).any()  # cut off in the tail


def test_a_batch_is_narrowed_once_at_most_half_its_columns_move():
    """Finished columns stay in the batch as NaN while more than half of it moves:
    each narrowing the step sees at least halves the width, and the rows still end
    as they end alone."""
    rows = 4 * dynamics.TAIL_WIDTH + 8
    starts = [(0.1, y) for y in np.linspace(0.05, 0.8, rows).tolist()]
    columns = {"a": [0.5] * rows, "b": [0.5] * rows}
    run = _batch_against_rows(TwoTypeParams, columns, starts, Tolerance())
    seen = []  # (width, finished columns) of each numpy step

    def step(p, s):
        if isinstance(s, np.ndarray):
            seen.append((s.shape[1], np.count_nonzero(np.isnan(s).all(axis=0))))
        return TwoTypeParams.step(p, s)

    params = TwoTypeParams(*(np.array(c) for c in columns.values()))
    again = dynamics.iterate_batch(step, np.array(starts).T, Tolerance(), params=params)
    assert again.end.tobytes() == run.end.tobytes()
    assert np.array_equal(again.steps_taken, run.steps_taken)
    widths = sorted({width for width, _ in seen}, reverse=True)
    assert widths[0] == rows and len(widths) >= 2
    assert all(2 * narrow <= wide for wide, narrow in zip(widths, widths[1:]))
    assert all(2 * finished < width for width, finished in seen)
    assert any(finished for _, finished in seen)


@st.composite
def tail_batches(draw):
    """TAIL_WIDTH - 2 to 4 * TAIL_WIDTH + 8 rows of one case, so the batch starts in the
    scalar tail or reaches it mid-run, and rows finish while it is still wide.  A third
    of the rows repeat an earlier row, so groups of rows finish on the same step; in half
    the others one parameter is 0, 1, -0.5 or NaN, which takes a four-type block or a
    two-type coordinate to NaN."""
    case = draw(st.sampled_from(["two-type", "four-type", "critical-line"]))
    rows = []
    for _ in range(draw(st.integers(dynamics.TAIL_WIDTH - 2, 4 * dynamics.TAIL_WIDTH + 8))):
        if rows and draw(st.integers(0, 2)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        if case == "two-type":
            p, start = TwoTypeParams(draw(unit), draw(unit)), draw(st.tuples(fraction, fraction))
        elif case == "four-type":
            p, state = draw(four_type_cases())
            start = state.tolist()
        else:
            p, start = CriticalMapParams(draw(unit), draw(unit), draw(unit)), (draw(fraction),)
        values = dict(vars(p))
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(values)))
            values[name] = draw(st.sampled_from([0.0, 1.0, -0.5, math.nan]))
        rows.append((values, start))
    return type(p), rows


@settings(PROPERTY, max_examples=50)
@given(tail_batches(), st.sampled_from([3, 40, 400]), st.sampled_from([1e-12, 1e-6]))
def test_a_batch_with_a_scalar_tail_equals_its_rows_run_alone(batch, max_iters, iter_eps):
    kind, rows = batch
    columns = {name: [values[name] for values, _ in rows] for name in rows[0][0]}
    tol = Tolerance(iter_eps=iter_eps, max_iters=max_iters)
    _batch_against_rows(kind, columns, [start for _, start in rows], tol)


def _pairwise_tensors(space, weights):
    """The heredity tensors, one parent pair at a time over compatible_sets."""
    f_pos = {cell: t for t, cell in enumerate(space.females)}
    m_pos = {cell: t for t, cell in enumerate(space.males)}
    pf = np.zeros((space.n, space.nu, space.n))
    pm = np.zeros((space.n, space.nu, space.nu))
    for i, f_idx in enumerate(space.females):
        for k, m_idx in enumerate(space.males):
            female_side, male_side = compatible_sets(space, f_idx, m_idx)
            f_total = sum(weights.female_weights[c] for c in female_side)
            m_total = sum(weights.male_weights[c] for c in male_side)
            for c in female_side:
                pf[i, k, f_pos[c]] = weights.female_weights[c] / f_total
            for c in male_side:
                pm[i, k, m_pos[c]] = weights.male_weights[c] / m_total
    return pf, pm


@CONSTRUCTION
@given(constructions())
def test_build_heredity_matches_the_pairwise_reference(case):
    space, weights = case
    built = build_heredity(space, weights)
    pf, pm = _pairwise_tensors(space, weights)
    assert np.array_equal(built.pf, pf)
    assert np.array_equal(built.pm, pm)


@CONSTRUCTION
@given(constructions(), st.integers(0, 2**32 - 1))
def test_operator_step_matches_the_quadratic_form(case, seed):
    op = build_operator(*case)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        s = np.concatenate((rng.dirichlet(np.ones(op.n)), rng.dirichlet(np.ones(op.nu))))
        assert np.abs(op.apply_raw(s) - op.quadratic_form(s)).max() <= 1e-15


def _written(write, *args) -> bytes:
    """The bytes ``write(path, *args)`` leaves in a fresh file."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "out")
        write(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


# Entries whose reprs take every form: signed zero, the smallest subnormal,
# exponent notation on both sides, and 16 or 17 significant digits.
ENTRY = st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1 / 3, 0.1 + 0.2, 1e16])


@st.composite
def operator_documents(draw):
    n, nu = draw(st.integers(1, 6)), draw(st.integers(1, 6))

    def tensor(last):
        return [[[draw(ENTRY) for _ in range(last)] for _ in range(nu)] for _ in range(n)]

    return {"pm": tensor(nu), "n": n, "pf": tensor(n), "nu": nu}


@PROPERTY
@given(operator_documents())
def test_dump_json_writes_the_bytes_of_json_dump(doc):
    text = io.StringIO()
    json.dump(doc, text, indent=2, sort_keys=True)
    assert _written(lambda path: dump_json(doc, path)) == (text.getvalue() + "\n").encode()


@PROPERTY
@given(operator_documents())
def test_dump_json_writes_the_same_bytes_from_arrays(doc):
    arrays = dict(doc, pf=np.array(doc["pf"]), pm=np.array(doc["pm"]))
    from_lists = _written(lambda path: dump_json(doc, path))
    assert _written(lambda path: dump_json(arrays, path)) == from_lists


def _loaded(text: str):
    """What ``load_json`` decodes from a fresh file that holds ``text``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_json(path)


def _leaves(doc):
    """The numbers, strings and keys of a decoded JSON document, depth first."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _leaves(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value)
    else:
        yield doc


@st.composite
def construction_documents(draw):
    """A two-vertex construction document; its weights are ints or ENTRY floats."""
    w = [draw(st.one_of(ENTRY, st.integers(1, 9))) for _ in range(4)]
    return {"vertices": 2, "edges": [[1, 2]], "alleles": 2, "females": [1, 2],
            "female_weights": {"1": w[0], "2": w[1]}, "male_weights": {"3": w[2], "4": w[3]}}


@PROPERTY
@given(st.one_of(operator_documents(), construction_documents()))
def test_load_json_decodes_what_json_load_decodes(doc):
    text = json.dumps(doc, indent=2)
    loaded, expected = _loaded(text), json.loads(text)
    assert loaded == expected
    # Equal leaves of another type (1 and 1.0) or sign (-0.0 and 0.0) differ in repr.
    typed = [(type(v), repr(v)) for v in _leaves(loaded)]
    assert typed == [(type(v), repr(v)) for v in _leaves(expected)]


@PROPERTY
@given(operator_documents())
def test_load_json_shares_one_float_per_number_text(doc):
    floats = [v for v in _leaves(_loaded(json.dumps(doc))) if isinstance(v, float)]
    # json.dumps writes each float as its repr, so equal reprs are equal texts;
    # -0.0 and 0.0 are two texts and stay two objects.
    assert len({id(v) for v in floats}) == len({repr(v) for v in floats})


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(st.integers(0, 10**6), st.lists(st.floats(), min_size=d, max_size=d)),
            max_size=5,
        )
    )
)
def test_the_trajectory_csv_is_what_csv_writer_writes(rows):
    header = ["step"] + [f"x_{i + 1}" for i in range(len(rows[0][1]) if rows else 1)]
    steps, states = [t for t, _ in rows], [s for _, s in rows]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows([t, *s] for t, s in rows)
    written = _written(cli._write_trajectory, header, steps, states)
    assert written == expected.getvalue().encode()


# Values with special texts, mixed in so that entries repeat.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0])


@PROPERTY
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
        elements=st.one_of(st.floats(), SPECIAL),
    )
)
def test_float_texts_is_the_repr_of_each_entry(values):
    texts = float_texts(values)
    assert texts.shape == values.shape and texts.dtype == object
    assert texts.ravel().tolist() == list(map(float.__repr__, values.ravel().tolist()))


def _raises(call, violation):
    """Whether ``call()`` raises the (error type, message) ``violation``, or returns
    when it is None."""
    if violation is None:
        call()
        return True
    with pytest.raises(violation[0]) as info:
        call()
    return str(info.value) == violation[1]


@PROPERTY
@given(
    st.integers(0, 4),
    st.lists(
        st.tuples(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=4, max_size=4),
            st.integers(0, 3),
            st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9, -5e-13, -2e-12, math.nan,
                             math.inf, -math.inf]),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_check_states_raises_what_make_state_raises(n, rows):
    # Each block is normalized, then one entry of the row is shifted across
    # or along one of the two tolerances, or made infinite or NaN; n = 0 and
    # n = 4 leave one block empty.
    states = []
    for weights, position, shift in rows:
        blocks = (weights[:n], weights[n:])
        row = [v / sum(b) if sum(b) > 0 else 1.0 / len(b) for b in blocks for v in b]
        row[position] += shift
        states.append(row)
    violations = [simplex_violation(row[:n], row[n:]) for row in states]
    for row, violation in zip(states, violations):
        assert _raises(partial(make_state, row[:n], row[n:]), violation)
    first = next((v for v in violations if v is not None), None)
    assert _raises(partial(check_states, np.array(states), n), first)
