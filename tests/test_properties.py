"""Property tests of the closed-form cases and of operators built from graphs.

Core claims, for in-domain parameters and starts of the two-type, the
four-type and the critical-line case:
  - a predictor raises FixedPointInputError exactly when dynamics.is_fixed
    holds for its start under the same tolerance
  - every predicted limit is a fixed point of the case's step to 1e-12
  - a four-type block on its critical line (a+c = 1 or b+d = 1) keeps its
    x+y in the limit to 1e-12, and the limit is where iteration ends to 1e-9
  - one step conserves x/a + y/(1-b) (two-type) and the four slice sums
    (four-type) to 1e-12
  - a batch of trajectories with per-row parameters ends each row where the
    row run alone ends, bit for bit, after as many steps and with the same
    convergence flag, whether the budget lets it converge or cuts it off
  - every point the grid search refines lies in its map's box and moves by
    at most abs_eps under one step; off a+c = 1 the four-type block's
    points are its two corners, on it they lie on its fixed curve to 1e-7

and, for random graphs, allele counts, female splits and weights:
  - build_heredity equals, bit for bit, the tensors normalized pair by pair
    over compatible_sets with a Python sum
  - the operator step agrees with the literal contraction to 1e-15
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import dynamics
from qsobp.cli import CASES
from qsobp.construction import (
    ConfigurationSpace,
    WeightPair,
    build_heredity,
    build_operator,
    compatible_sets,
    make_graph,
)
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CriticalMapParams,
    FourTypeParams,
    critical_fixed_points,
    fixed_curve,
    limit_branch,
    predict_limit,
    predict_limit_critical,
    slice_sums,
)
from qsobp.simplex import Tolerance, make_state
from qsobp.two_types import TwoTypeParams, invariant_line_level
from qsobp.two_types import predict_limit as predict_limit_two

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
        return predictor(p, start, tol)
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
    sums = slice_sums(state)
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
    limit = _predicts(predict_limit, p, state, tol)
    assert (limit is None) == dynamics.is_fixed(p.step, state.coords(), tol)
    if limit is not None:
        assert _moved(p.step, limit.coords()) <= 1e-12
        for i, side in zip((0, 2), limit_branch(p)):
            if side == 0:
                kept = limit.female[i] + limit.male[i]
                assert kept == pytest.approx(state.female[i] + state.male[i], rel=0, abs=1e-12)
    after = p.step(state.coords())
    moved_sums = slice_sums(make_state(after[:4], after[4:]))
    assert max(abs(u - v) for u, v in zip(moved_sums, slice_sums(state))) <= 1e-12


@PROPERTY
@given(unit, unit, unit, st.one_of(st.none(), fraction), tolerance)
def test_critical_line_predictor(a, a0, c0, x0, tol):
    cp = CriticalMapParams(a, a0, c0)
    if x0 is None:  # the fixed point itself
        x0 = critical_fixed_points(cp).point
    limit = _predicts(predict_limit_critical, cp, x0, tol)
    assert (limit is None) == dynamics.is_fixed(cp.step, (x0,), tol)
    if limit is not None:
        assert _moved(cp.step, (limit,)) <= 1e-12


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
        starts.append(state.coords())
        limits.append(predict_limit(p, state).coords())
    run = dynamics.iterate_batch(
        FourTypeParams.step,
        np.array(starts).T,
        Tolerance(iter_eps=1e-13, max_iters=10**5),
        params=dynamics.stack_params(rows),
    )
    assert run.converged.all()
    assert np.abs(run.end - np.array(limits).T).max() <= 1e-9


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
        curve = fixed_curve(p)
        assert max(abs(y - curve(x)) for x, y in points) <= 1e-7


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
            rows.append((p, state.coords()))
        else:
            rows.append((CriticalMapParams(draw(unit), draw(unit), draw(unit)), (draw(fraction),)))
    p = rows[0][0]
    if case == "two-type":
        fixed = (draw(fraction), 0.0)
    elif case == "four-type":
        fixed = (p.a0, 0.0, 1.0 - p.a0, 0.0, p.c0, 0.0, 1.0 - p.c0, 0.0)
    else:
        fixed = (critical_fixed_points(p).point,)
    return rows + [(p, fixed)]


@settings(PROPERTY, max_examples=40)
@given(batch_rows())
def test_a_batch_equals_its_rows_run_alone(rows):
    step = type(rows[0][0]).step
    starts = np.array([start for _, start in rows]).T
    # 5 steps leave every moving start unconverged; 400 let many converge.
    for tol in (Tolerance(max_iters=5), Tolerance(max_iters=400)):
        params = dynamics.stack_params([p for p, _ in rows])
        run = dynamics.iterate_batch(step, starts, tol, params=params)
        assert run.steps_taken[-1] == 0 and run.converged[-1]
        for column, (p, start) in enumerate(rows):
            alone = dynamics.iterate_batch(
                step, starts[:, [column]], tol, params=dynamics.stack_params([p])
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
        x, y = rng.dirichlet(np.ones(op.n)), rng.dirichlet(np.ones(op.nu))
        for step, literal in zip(op.apply_raw(x, y), op.quadratic_form(x, y)):
            assert np.abs(step - literal).max() <= 1e-15
