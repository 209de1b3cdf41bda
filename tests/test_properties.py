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
  - on a slice, coordinates 0 and 4 of the four-type step are sub12_step of
    (x1, y1), and coordinates 2 and 6 the swapped block's sub12_step of
    (x3, y3), bit for bit, for parameters as numbers and stacked
  - a batch of trajectories with per-row parameters ends each row where the
    row run alone ends, bit for bit, after as many steps and with the same
    convergence flag, whether the budget lets it converge or cuts it off;
    this holds for batches that start in the scalar tail or reach it mid-run,
    for rows that finish before, at or after the handoff, for groups of rows
    that finish on one step while the batch is still wide, for rows whose
    parameters are 0, 1, -0.5 or NaN, which the numpy engine steps alone, and
    for rows whose coordinate 0 stays put while later coordinates move or turn
    NaN; no row that ends holding NaN is converged
  - iterate_batch gives, bit for bit, what its rule stated one step at a time
    (helpers.reference_batch) gives, histories included, for blocks of one to
    BLOCK_STEPS steps and budgets on both sides of a block, and steps no column
    more than max_iters times; a batch narrows only between blocks, which fit
    BLOCK_BYTES, and shows the step no NaN that its parameters do not give
  - off a+c = 1 (by at least 1e-6) the four-type block's corner (a0, c0)
    attracts when a+c > 1 and (0, 0) when a+c < 1, and the other corner is a
    saddle or repelling; on the line every fixed point is non-hyperbolic
    with exactly one modulus within abs_eps of one
  - every point the grid search refines lies in its map's box and moves by
    at most abs_eps under one step; off a+c = 1 the four-type block's
    points are its two corners, on it they lie on its fixed curve to 1e-7
  - the grid search's dedupe keeps exactly the points that the all-pairs
    rule keeps, on lattices with pairs at exactly the radius and on clouds
    anywhere in the unit square

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
  - write_json writes any document of nested dicts, lists, tuples, strings,
    ints, floats, bools and None, record lists whose later records miss a key
    or hold a nested value included, with the bytes of json.dumps with indent
    2 and sorted keys and a final newline, to a file and to standard output
  - load_json decodes an operator or construction document as json.load
    does, leaf types and the sign of zero included, with one float object
    per distinct number text
  - the rows of trajectory and portrait CSVs have the bytes csv.writer gives
    for the same rows, whatever the number of blocks they are formatted in
  - the phase portrait, every regime's fan in one batch with per-row
    parameters, has the bytes of one batch per regime, on random four-type
    slices and with a regime whose trajectories are thinned
  - the CLI's parameter grid gives the rows of the product of its axes, the
    last axis fastest, at any run of flat indices
  - make_state raises the error type and message that helpers.simplex_violation
    names, female block first, for blocks that are empty, off one by a shift
    across or along either tolerance, infinite or NaN; check_states raises the
    one of the first row that has one
"""

import contextlib
import csv
import io
import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qsobp import cli, dynamics
from qsobp.cli import CASES
from qsobp.construction import (build_heredity, build_operator, compatible_sets, dump_json,
                                load_json)
from qsobp.dynamics import StabilityKind, classify_fixed_point
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CriticalMapParams,
    FourTypeParams,
    critical_fixed_points,
    fixed_curve,
    limit_branch,
    pair_point,
    predict_limit,
    predict_limit_critical,
    slice_sums,
    sub12_fixed_points,
)
from qsobp.simplex import Tolerance, check_states, float_texts, make_state, write_json
from qsobp.two_types import TwoTypeParams, invariant_line_level
from qsobp.two_types import predict_limit as predict_limit_two

from helpers import (constructions, mirror_params, predict_one, quadratic_form, reference_batch,
                     simplex_violation, spread_reference, stack_params)

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


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@PROPERTY
@given(st.lists(st.tuples(*[unit] * 6, *[fraction] * 4), min_size=1, max_size=5))
def test_the_four_type_step_is_its_type_12_block_and_the_swapped_block(rows):
    params, coords = [], []
    for a, b, c, d, a0, c0, fx1, fx3, fy1, fy3 in rows:
        x1, x3, y1, y3 = fx1 * a0, fx3 * (1.0 - a0), fy1 * c0, fy3 * (1.0 - c0)
        params.append(FourTypeParams(a, b, c, d, a0, c0))
        coords.append((x1, a0 - x1, x3, 1.0 - a0 - x3, y1, c0 - y1, y3, 1.0 - c0 - y3))
    stacked = (stack_params(params), tuple(np.array(column) for column in zip(*coords)))
    for p, s in [*zip(params, coords), stacked]:
        out = p.step(s)
        assert _bits(p.sub12_step((s[0], s[4]))) == _bits((out[0], out[4]))
        assert _bits(mirror_params(p).sub12_step((s[2], s[6]))) == _bits((out[2], out[6]))


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
            point = float(pair_point(*np.array([1.0 - a, a, a, a0, c0, a]))[0])
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


@PROPERTY
@given(
    st.sampled_from([2.0**-3, 2.0**-12, 1e-8, 5e-323]),
    st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=60),
    st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=20),
)
def test_the_grid_search_dedupe_keeps_what_the_all_pairs_rule_keeps(radius, lattice, points):
    # Lattice points radius / 2 apart, so that many pairs lie at exactly the radius
    # when it is a power of two, and points anywhere in the unit square; with the
    # subnormal radius, cells are coarser than it.
    cloud = sorted([(i * radius / 2, j * radius / 2) for i, j in lattice] + points)
    assert dynamics._spread(cloud, radius) == spread_reference(cloud, radius)


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
    jacobian = CASES["four-type"].planar(p)[1]
    zero, corner = (classify_fixed_point(jacobian(pt)).kind for pt in sub12_fixed_points(p))
    attracting, other = (corner, zero) if p.a + p.c > 1.0 else (zero, corner)
    assert attracting is StabilityKind.ATTRACTING
    assert other in (StabilityKind.SADDLE, StabilityKind.REPELLING)


@PROPERTY
@given(unit, unit, unit, unit)
def test_on_the_critical_line_every_fixed_point_has_one_unit_modulus(a, a0, c0, b):
    p = FourTypeParams(a, b, 1.0 - a, b, a0, c0)
    points, jacobian = sub12_fixed_points(p), CASES["four-type"].planar(p)[1]
    assert len(points) == 11
    for point in points:
        verdict = classify_fixed_point(jacobian(point))
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


def _numpy_steps(kind, columns: dict, starts: list, tol: Tolerance) -> int:
    """How many numpy steps ``iterate_batch`` takes on these rows before its scalar tail."""
    calls = []

    def step(p, s):
        if isinstance(s, np.ndarray):
            calls.append(s.shape[1])
        return kind.step(p, s)

    params = kind(**{name: np.array(column, dtype=float) for name, column in columns.items()})
    with np.errstate(over="ignore", invalid="ignore"):
        dynamics.iterate_batch(step, np.array(starts, dtype=float).T, tol, params=params)
    return len(calls)


def _ab_columns(rows) -> dict:
    """The ``a`` and ``b`` columns of two-type rows ((a, b), start)."""
    return {"a": [a for (a, _), _ in rows], "b": [b for (_, b), _ in rows]}


def test_a_batch_hands_its_last_rows_to_the_scalar_tail_mid_run():
    """A two-type batch of 2 * TAIL_WIDTH + 5 rows: the numpy blocks stop at the first
    block end that leaves at most TAIL_WIDTH rows, and the rest finish one at a time
    on Python floats.  Two rows finish on the last numpy step and the first scalar one."""
    width, block = dynamics.TAIL_WIDTH, dynamics.BLOCK_STEPS
    p = TwoTypeParams(0.5, 0.5)
    slowest = (0.1, 0.8)
    last = dynamics.iterate_map(p.step, slowest).steps_taken + 1  # the step it converges at
    valid = [(0.1, y) for y in np.linspace(0.05, 0.3, width).tolist()]  # 44 to 71 steps
    valid += [(0.3, 0.0), (1.0, 0.5)]  # fixed
    valid += [(0.1, y) for y in np.linspace(0.72, 0.79, width - 4).tolist()]  # 247 to 395
    # The last row's first step moves x by 0 and y to NaN: a move test that
    # takes the max of the moves in order would call it converged.
    invalid = [((0.0, 0.5), (0.1, 0.5)), ((1.0, 0.5), (0.1, 0.5)), ((-0.5, 0.5), (0.1, 0.5)),
               ((math.nan, 0.5), (0.1, 0.5)), ((0.5, math.nan), (0.3, 0.0))]
    for max_iters in (300, 3000):
        tol = Tolerance(max_iters=max_iters)
        rows = [((0.5, 0.5), start) for start in valid] + invalid
        handoff = _numpy_steps(TwoTypeParams, _ab_columns(rows), [s for _, s in rows], tol)
        # Two more rows, ``slowest`` stepped on until it has ``handoff`` + 1 and
        # ``handoff`` steps left, which leave the handoff where it was.
        late = [slowest]
        for _ in range(last - handoff):
            late.append(p.step(late[-1]))
        rows += [((0.5, 0.5), late[-2]), ((0.5, 0.5), late[-1])]
        starts = [s for _, s in rows]
        assert _numpy_steps(TwoTypeParams, _ab_columns(rows), starts, tol) == handoff
        # Alone, the invalid rows are a batch that starts in the tail; ``run`` is
        # the whole batch's.
        for batch in (invalid, rows):
            run = _batch_against_rows(TwoTypeParams, _ab_columns(batch), [s for _, s in batch], tol)
        # The step at which each row finished, or the budget.  The blocks here
        # are full, BLOCK_STEPS steps each.
        taken = run.steps_taken + run.converged
        assert handoff % block == 0 and handoff < max_iters
        left = np.count_nonzero(taken > handoff), np.count_nonzero(taken > handoff - block)
        assert left[0] <= width < left[1]
        assert (taken <= handoff - block).any()  # finished before the last numpy block
        assert (run.converged & (taken == handoff)).any()  # its last numpy step
        assert (run.converged & (taken == handoff + 1)).any()  # the first scalar step
        assert (run.converged & (taken > handoff + 1)).any()  # later in the tail
        assert (~run.converged & (taken == max_iters)).any()  # cut off in the tail


def test_a_batch_narrows_only_between_blocks_of_steps():
    """A two-type batch wide enough that its first blocks are shortened to fit
    BLOCK_BYTES.  Each block of numpy steps (told apart by the buffer slot the step
    is given) sees one width and takes at most BLOCK_STEPS steps, whose states, when
    it takes more than one, fill at most BLOCK_BYTES; no column the step sees holds
    NaN unless its row's parameters give NaN; and every row ends as a batch of that
    row alone ends."""
    rows = 2 * dynamics.BLOCK_BYTES // (2 * 8 * dynamics.BLOCK_STEPS)  # blocks of BLOCK_STEPS / 2
    a = np.full(rows, 0.5)
    a[97::97][:6] = [0.0, 1.0, -0.5, math.nan, 1.5, math.nan]  # NaN from the NaN rows only
    starts = np.stack([np.full(rows, 0.1), np.linspace(0.05, 0.8, rows)])
    params = TwoTypeParams(a, np.full(rows, 0.5))
    seen = []  # (slot of the block, width, bytes of the states, a NaN outside the bad rows)

    def step(p, s):
        if isinstance(s, np.ndarray):
            slot = (s.ctypes.data - s.base.ctypes.data) // s.nbytes
            ok = (0.0 < p.a) & (p.a < 1.0)
            seen.append((slot, s.shape[1], s.nbytes, bool(np.isnan(s[:, ok]).any())))
        return TwoTypeParams.step(p, s)

    tol = Tolerance(max_iters=1000)  # the valid rows converge by step 432
    with np.errstate(over="ignore", invalid="ignore"):
        run = dynamics.iterate_batch(step, starts, tol, params=params)
        for row in range(rows):
            one = TwoTypeParams(a[[row]], np.array([0.5]))
            alone = dynamics.iterate_batch(TwoTypeParams.step, starts[:, [row]], tol, params=one)
            assert run.end[:, row].tobytes() == alone.end[:, 0].tobytes()
            assert (run.steps_taken[row], run.converged[row]) == (
                alone.steps_taken[0], alone.converged[0]
            )
    assert not any(nan for *_, nan in seen)
    blocks = []  # (steps, widths, bytes) of each block
    for slot, width, nbytes, _ in seen:
        if slot == 0:
            blocks.append([0, set(), nbytes])
        blocks[-1][0] += 1
        blocks[-1][1].add(width)
    assert all(len(widths) == 1 for _, widths, _ in blocks)
    assert all(steps <= dynamics.BLOCK_STEPS for steps, _, _ in blocks)
    assert all(steps * nbytes <= dynamics.BLOCK_BYTES for steps, _, nbytes in blocks if steps > 1)
    assert blocks[0][0] == dynamics.BLOCK_STEPS // 2  # shortened to fit the budget
    assert any(steps == dynamics.BLOCK_STEPS for steps, _, _ in blocks)
    widths = [widths.pop() for _, widths, _ in blocks]
    assert widths[0] == rows and widths == sorted(widths, reverse=True) and len(set(widths)) > 2


@st.composite
def tail_batches(draw):
    """TAIL_WIDTH - 2 to 4 * TAIL_WIDTH + 8 rows of one case, so the batch starts in the
    scalar tail or reaches it mid-run, and rows finish while it is still wide.  A third
    of the rows repeat an earlier row, so groups of rows finish on the same step; in half
    the others one parameter is 0, 1, -0.5 or NaN, which takes a four-type block or a
    two-type coordinate to NaN.  In a third of the four-type rows the type-1/2 block
    starts at a corner, fixed, so coordinate 0 passes every move test while the
    type-3/4 block moves; in half of those b or d is NaN, which turns the type-3/4
    block NaN while coordinate 0 stays put."""
    case = draw(st.sampled_from(["two-type", "four-type", "critical-line"]))
    rows = []
    for _ in range(draw(st.integers(dynamics.TAIL_WIDTH - 2, 4 * dynamics.TAIL_WIDTH + 8))):
        if rows and draw(st.integers(0, 2)) == 0:
            rows.append(draw(st.sampled_from(rows)))
            continue
        cornered = False
        if case == "two-type":
            p, start = TwoTypeParams(draw(unit), draw(unit)), draw(st.tuples(fraction, fraction))
        elif case == "four-type":
            p, state = draw(four_type_cases())
            start = state.tolist()
            if draw(st.integers(0, 2)) == 0:
                cornered = True
                at_a0 = draw(st.booleans())
                start[0:2] = [p.a0, 0.0] if at_a0 else [0.0, p.a0]
                start[4:6] = [p.c0, 0.0] if at_a0 else [0.0, p.c0]
        else:
            p, start = CriticalMapParams(draw(unit), draw(unit), draw(unit)), (draw(fraction),)
        values = dict(vars(p))
        if cornered and draw(st.booleans()):
            values[draw(st.sampled_from(["b", "d"]))] = math.nan
        elif draw(st.booleans()):
            name = draw(st.sampled_from(sorted(values)))
            values[name] = draw(st.sampled_from([0.0, 1.0, -0.5, math.nan]))
        rows.append((values, start))
    return type(p), rows


@settings(PROPERTY, max_examples=50)
@given(tail_batches(), st.sampled_from([3, 40, 400]), st.sampled_from([1e-12, 1e-6]))
def test_a_batch_with_a_scalar_tail_equals_its_rows_run_alone(batch, max_iters, iter_eps):
    """Each row ends as it ends alone, and the batch as ``helpers.reference_batch`` ends
    it, bit for bit; a row that ends holding NaN never converged."""
    kind, rows = batch
    columns = {name: [values[name] for values, _ in rows] for name in rows[0][0]}
    tol = Tolerance(iter_eps=iter_eps, max_iters=max_iters)
    starts = [start for _, start in rows]
    run = _batch_against_rows(kind, columns, starts, tol)
    params = kind(**{name: np.array(column, dtype=float) for name, column in columns.items()})
    _assert_same_runs(run, reference_batch(kind.step, np.array(starts).T, tol, params=params))
    assert not run.converged[np.isnan(run.end).any(axis=0)].any()


@dataclass(frozen=True)
class _Counted:
    """Two-type parameters of every (x, y) pair of a state, and the row's index, by
    which ``_pairs_step`` counts how often each column is stepped."""

    a: float
    b: float
    row: float


def _pairs_step(counts, p, s):
    """The two-type map on each (x, y) pair of the coordinates ``s``, a (d, B) array
    or, in the scalar tail, a list of d floats; adds one to the ``counts`` of p's rows."""
    counts[np.asarray(p.row, dtype=np.intp)] += 1
    if isinstance(s, list):
        out = []
        for x, y in zip(s[0::2], s[1::2]):
            rest = 1.0 - x
            out += [x + p.a * rest * y, y * (x + p.b * rest)]
        return out
    x, y = s[0::2], s[1::2]
    rest = 1.0 - x
    out = np.empty_like(s)
    out[0::2] = x + p.a * rest * y
    out[1::2] = y * (x + p.b * rest)
    return out


@st.composite
def engine_batches(draw):
    """A (d, B) start of the pairs map and its (B,) parameters.  d is 2, 8 or 256 and B
    runs to 40 or, at d = 256, past two BLOCK_BYTES of states, so a block of steps runs
    from BLOCK_STEPS steps down to one.  A fifth of the columns start fixed (every y = 0), a
    parameter is 0, 1, -0.5, 1.5 or NaN a sixth of the time, and a fifth of the
    columns repeat an earlier one, so groups of columns finish on one step.  At d = 8
    and 256, in a fifth of the columns only the first pair starts fixed (its y = 0), so
    coordinate 0 passes every move test while later pairs move; in a third of those a
    later pair starts at x = 10**2 to 10**300, which overflows and turns NaN while
    coordinate 0 stays put.  The last value lists these settled-first columns."""
    d = draw(st.sampled_from([2, 8, 256]))
    width = draw(st.integers(1, dynamics.BLOCK_BYTES // (d * 8) + 32 if d == 256 else 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    starts = rng.uniform(0.0, 1.0, (d, width))
    starts[1::2, rng.random(width) < 0.2] = 0.0
    a, b = rng.uniform(0.01, 0.99, (2, width))
    for values in (a, b):
        odd = rng.random(width) < 1 / 6
        values[odd] = rng.choice([0.0, 1.0, -0.5, 1.5, math.nan], np.count_nonzero(odd))
    for column in np.flatnonzero(rng.random(width) < 0.2).tolist():
        if column:
            earlier = int(rng.integers(column))
            starts[:, column], a[column], b[column] = starts[:, earlier], a[earlier], b[earlier]
    settled = np.flatnonzero(rng.random(width) < 0.2) if d > 2 else np.arange(0)
    starts[1, settled] = 0.0
    starts[3::2, settled] = rng.uniform(0.01, 1.0, (d // 2 - 1, settled.size))
    blowup = settled[rng.random(settled.size) < 1 / 3]
    starts[2 * rng.integers(1, d // 2, blowup.size), blowup] = 10.0 ** rng.uniform(2, 300, blowup.size)
    return starts, a, b, settled


@settings(PROPERTY, max_examples=150)
@given(
    engine_batches(),
    st.sampled_from([1, dynamics.BLOCK_STEPS - 1, dynamics.BLOCK_STEPS, dynamics.BLOCK_STEPS + 1,
                     3 * dynamics.BLOCK_STEPS + 2]),
    st.sampled_from([None, 2, 3, 5]),
    st.sampled_from([1e-12, 1e-6, 1e-2]),
    st.booleans(),
)
def test_the_engine_gives_what_its_rule_gives_one_step_at_a_time(
    batch, max_iters, store_cap, iter_eps, per_row
):
    """``iterate_batch`` against ``helpers.reference_batch``, bit for bit: end states,
    steps, flags and, with ``store_cap``, every stored state and its step.  With
    per-row parameters no column is stepped more than ``max_iters`` times, and
    without them the map is called at most ``max_iters`` times.  A column that ends
    holding NaN never converged, and up to 8 columns whose coordinate 0 settles first
    end, run alone, as they end in the batch."""
    starts, a, b, settled = batch
    width = starts.shape[1]
    tol = Tolerance(iter_eps=iter_eps, max_iters=max_iters)
    params = _Counted(a, b, np.arange(width, dtype=float)) if per_row else None
    counts = np.zeros(width, dtype=np.int64)
    if per_row:
        step = partial(_pairs_step, counts)
    else:
        one = _Counted(float(a[0]), float(b[0]), 0.0)  # counts[0] counts the calls
        step = lambda _, s: _pairs_step(counts, one, s)  # noqa: E731
    with np.errstate(all="ignore"):
        run = dynamics.iterate_batch(step, starts, tol, params=params, store_cap=store_cap)
        stepped = counts.copy()
        ref = reference_batch(step, starts, tol, params=params, store_cap=store_cap)
    _assert_same_runs(run, ref)
    assert stepped.max() <= max_iters
    assert not run.converged[np.isnan(run.end).any(axis=0)].any()
    for column in settled[:8].tolist():
        one_row = _Counted(a[[column]], b[[column]], np.zeros(1)) if per_row else None
        with np.errstate(all="ignore"):
            alone = dynamics.iterate_batch(
                step, starts[:, [column]], tol, params=one_row, store_cap=store_cap
            )
        _assert_same_runs(alone, _column(run, column))


def _column(run: dynamics.BatchRun, column: int) -> dynamics.BatchRun:
    """The record of one column of ``run``, as a batch of that column alone."""
    trajectories = None if run.trajectories is None else (run.trajectories[column],)
    return dynamics.BatchRun(run.end[:, [column]], run.steps_taken[[column]],
                             run.converged[[column]], trajectories)


def _assert_same_runs(got: dynamics.BatchRun, want: dynamics.BatchRun) -> None:
    """The two records agree bit for bit, stored histories included."""
    assert got.end.tobytes() == want.end.tobytes()
    assert np.array_equal(got.steps_taken, want.steps_taken)
    assert np.array_equal(got.converged, want.converged)
    if want.trajectories is None:
        assert got.trajectories is None
        return
    for g, w in zip(got.trajectories, want.trajectories, strict=True):
        assert g.states.tobytes() == w.states.tobytes()
        assert g.states.shape == w.states.shape
        assert g.state_steps == w.state_steps
        assert (g.converged, g.steps_taken, g.limit) == (w.converged, w.steps_taken, w.limit)


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
        assert np.abs(op.apply_raw(s) - quadratic_form(op, s)).max() <= 1e-15


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


# Keys and strings with a percent sign, a quote, a backslash, a line break and
# non-ASCII characters, and any text.
TEXT = st.one_of(st.text(st.sampled_from('a%"\\\né☃'), max_size=4), st.text(max_size=4))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), TEXT,
                    st.floats(allow_nan=False, allow_infinity=False), ENTRY)


@st.composite
def records(draw, values):
    """A list of dicts with the same keys, each key's values of one kind, in which a
    later record may miss a key or hold a nested ``values`` value."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    # One kind mixes bools with the ints 0 and 1, equal to them but written apart.
    kinds = st.sampled_from([ENTRY, st.floats(allow_nan=False, allow_infinity=False),
                             st.integers(), st.booleans(), TEXT, st.none(),
                             st.one_of(st.booleans(), st.integers(0, 1)),
                             st.lists(ENTRY, max_size=3), st.lists(st.lists(ENTRY, max_size=2))])
    columns = {key: draw(kinds) for key in keys}
    rows = [{key: draw(kind) for key, kind in columns.items()}
            for _ in range(draw(st.integers(1, 6)))]
    if len(rows) > 1 and draw(st.booleans()):
        row, key = rows[draw(st.integers(1, len(rows) - 1))], draw(st.sampled_from(keys))
        if draw(st.booleans()):
            del row[key]
        else:
            row[key] = draw(values)
    return rows


json_documents = st.recursive(
    SCALARS,
    lambda values: st.one_of(
        st.lists(values, max_size=4),
        st.lists(values, max_size=4).map(tuple),
        st.dictionaries(TEXT, values, max_size=4),
        records(values),
    ),
    max_leaves=40,
)


@PROPERTY
@given(json_documents)
def test_write_json_writes_the_bytes_of_json_dumps_to_a_file_and_to_stdout(doc):
    expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert _written(lambda path: write_json(doc, path)) == expected.encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write_json(doc)
    assert out.getvalue() == expected


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


# Values with special texts, mixed in so that entries repeat.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0])
STEP = st.integers(0, 10**6)


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(st.lists(st.one_of(st.floats(), SPECIAL), min_size=d, max_size=d),
                           max_size=40)
    ),
    st.one_of(  # the heads of a trajectory's rows, or of a portrait's
        st.tuples(STEP),
        st.tuples(st.sampled_from(["two-type", "below", "critical"]), st.integers(0, 7), STEP),
    ),
    st.integers(1, 12),
)
def test_the_trajectory_csv_is_what_csv_writer_writes(states, head, block_floats):
    # Each row's head fields, told apart by their step; a block holds about
    # block_floats floats, so 40 rows reach many blocks.
    heads = [(*head[:-1], head[-1] + k) for k in range(len(states))]
    # Steps alone are ints, as in a trajectory's state_steps.
    texts = tuple(h for h, in heads) if len(head) == 1 else [",".join(map(str, h)) for h in heads]
    width = len(states[0]) if states else 1
    header = [f"h{i}" for i in range(len(head))] + [f"x_{i + 1}" for i in range(width)]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows([*h, *s] for h, s in zip(heads, states))
    with patch.object(cli, "SWEEP_BLOCK_ROWS", block_floats):
        written = _written(cli._write_lines, header, cli._float_rows(texts, states))
        blocks = list(cli._float_rows(texts, states))
    assert written == expected.getvalue().encode()
    assert len(blocks) == -(-len(states) // max(1, block_floats // width))


@settings(PROPERTY, max_examples=10)
@given(st.floats(0.05, 0.95), st.floats(0.05, 0.95), unit, unit, st.floats(0.1, 0.8),
       st.floats(0.02, 0.05))
def test_the_portrait_in_one_batch_has_the_bytes_of_one_batch_per_regime(a0, c0, b, d, a, gap):
    # The four-type regimes on a random slice, and one that creeps to a corner
    # near a+c = 1, whose trajectories store more than store_cap = 400 states.
    case = CASES["four-type"]
    regimes = [(name, FourTypeParams(b=b, d=d, a0=a0, c0=c0, **overrides))
               for name, overrides in case.portrait]
    regimes.append(("slow", FourTypeParams(a, b, 1.0 - a - gap, d, a0=a0, c0=c0)))
    fan = [(0.05, 0.9), (0.3, 0.9), (0.6, 0.9), (0.9, 0.85),
           (0.9, 0.1), (0.6, 0.05), (0.3, 0.08), (0.08, 0.3)]
    header = ["regime", "traj", "step", "x", "y"]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    for name, p in regimes:
        step, _, (w, h) = case.planar(p)
        starts = [[u * w for u, _ in fan], [v * h for _, v in fan]]
        run = dynamics.iterate_batch(lambda _, s: step(s), starts, Tolerance(max_iters=20_000),
                                     store_cap=400)
        for t, traj in enumerate(run.trajectories):
            rows = zip(traj.state_steps, traj.states.tolist())
            writer.writerows([name, t, i, *s] for i, s in rows)
    assert max(run.steps_taken) > 400  # the slow regime's run, the last
    written = _written(cli._write_lines, header, cli._portrait_rows(case, regimes, Tolerance()))
    assert written == expected.getvalue().encode()


@PROPERTY
@given(
    st.lists(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4), min_size=1, max_size=3),
    st.data(),
)
def test_grid_rows_are_those_of_the_product_of_its_axes(axes, data):
    rows = [list(row) for row in itertools.product(*axes)]
    lo = data.draw(st.integers(0, len(rows)))
    hi = data.draw(st.integers(lo, len(rows)))
    table = cli._grid([np.array(axis) for axis in axes], np.arange(lo, hi))
    assert table.shape == (hi - lo, len(axes))
    assert table.tolist() == rows[lo:hi]


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
