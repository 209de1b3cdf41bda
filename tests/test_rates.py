"""Closed-form convergence rates and the error bounds verify stops its rows on.

``four_types.pair_rate`` against the eigenvalues of ``pair_jacobian``; the
critical section's slope as its block's rate, bit for bit; each case's rate
bound against the Jacobian at the closed-form limit; and the gate: on random
two-type and four-type rows, stopped as ``verify`` stops them, and on general
pair blocks, the reported error bound never falls short of the true distance
to ``pair_limit`` by more than the closed form's own rounding, and no
observed rate exceeds its rate.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import cli, dynamics, four_types, two_types
from qsobp.four_types import (RATE_BAND, CriticalMapParams, FourTypeParams, PairBlock,
                              corner_bound, pair_jacobian, pair_limit, pair_rate)
from qsobp.simplex import Tolerance
from qsobp.two_types import TwoTypeParams

from helpers import stack_params

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)
unit = st.floats(0.01, 0.99)
# The closed form's own rounding at parameters in [0.01, 0.99] is about 1e-14.
UNDER_REPORT = 1e-13


def test_pair_rate_is_the_spectral_radius_and_left_perron_vector_of_the_jacobian():
    rng = np.random.default_rng(26)
    for _ in range(500):
        u, beta, gamma, w = rng.uniform(0.0, 1.0, 4)
        if abs(u * w - beta * gamma) <= four_types.CRITICAL_EPS:
            continue
        a0, c0 = rng.uniform(0.01, 1.0, 2)
        x, y = a0 * rng.uniform(), c0 * rng.uniform()
        jacobian = pair_jacobian(u, beta, gamma, w, a0, c0, x, y)
        rho, v = pair_rate(u, beta, gamma, w, a0, c0, x, y)
        assert (jacobian >= 0.0).all()
        assert abs(rho - np.abs(np.linalg.eigvals(jacobian)).max()) <= 1e-14
        assert min(v) == 1.0
        np.testing.assert_allclose(np.dot(v, jacobian), rho * np.asarray(v), rtol=1e-12, atol=1e-14)


@PROPERTY
@given(unit, unit, unit)
def test_the_critical_slope_is_the_section_blocks_rate_bit_for_bit(a, a0, c0):
    # The trace minus one of the section block's Jacobian, as the slope was
    # computed before it called pair_rate.
    cp = CriticalMapParams(a, a0, c0)
    t = four_types.critical_fixed_points(cp)[0]
    jacobian = pair_jacobian(1.0 - a, a, 1.0 - a, a, a0, c0, t, 1.0 - t)
    assert four_types.critical_slope(cp) == float(jacobian[0, 0] + jacobian[1, 1] - 1.0)


@PROPERTY
@given(unit, unit, unit, unit)
def test_the_two_type_rate_bound_is_the_rate_at_the_limit(a, b, x0, y0):
    # At the limit the Jacobian has the eigenvalue 1 along the fixed set; the
    # rate is the other one, its trace minus 1.
    p = TwoTypeParams(a, b)
    limit = pair_limit(0.0, a, 0.0, 1.0 - b, 1.0, 1.0, x0, y0)
    jacobian = pair_jacobian(0.0, a, 0.0, 1.0 - b, 1.0, 1.0, *limit)
    rate, kappa = two_types.stop_rate(p, [(x0, y0)])
    assert kappa == 1.0
    assert abs(rate[0] - (np.trace(jacobian) - 1.0)) <= 1e-12


@PROPERTY
@given(unit, unit, unit, unit, unit, unit)
def test_the_four_type_rate_bound_is_the_larger_corner_rate_off_the_band(a, b, c, d, a0, c0):
    p = FourTypeParams(a, b, c, d, a0, c0)
    start = np.array([[a0 / 2, a0 / 2, (1 - a0) / 2, (1 - a0) / 2,
                       c0 / 2, c0 / 2, (1 - c0) / 2, (1 - c0) / 2]])
    rate, kappa = four_types.stop_rate(p, start)
    blocks = ((1 - a, a, c, 1 - c, a0, c0), (1 - b, b, d, 1 - d, 1 - a0, 1 - c0))
    if min(abs(u * w - beta * gamma) for u, beta, gamma, w, _, _ in blocks) <= RATE_BAND:
        assert math.isnan(rate[0])
        return
    radii = []
    for block, (i, k) in zip(blocks, ((0, 4), (2, 6))):
        limit = pair_limit(*block, start[0, i], start[0, k])
        radii.append(np.abs(np.linalg.eigvals(pair_jacobian(*block, *limit))).max())
    assert abs(rate[0] - max(radii)) <= 1e-14
    assert kappa >= 2.0


def _certified_rows(case_name, rows, match_eps, tol):
    """The rows (parameters, start), stopped as verify stops them, with each row's
    threshold, rate, observed rate, error bound and max-norm distance to the closed
    form's limit."""
    case = cli.CASES[case_name]
    params = stack_params([p for p, _ in rows])
    starts = np.array([start for _, start in rows], dtype=float)
    limits, fixed, _ = case.predict(params, starts, tol)
    assume(not fixed.any())
    run, eps, (rate, observed, bound) = cli._certified_run(case, params, starts, tol, match_eps)
    distance = np.abs(run.end - limits.T).max(axis=0)
    return eps, rate, observed, bound, distance


def _assert_certified(rate, observed, bound, distance):
    has = ~np.isnan(rate)
    assert (rate[has] < 1.0).all()
    assert (bound[has] >= distance[has] - UNDER_REPORT).all(), (bound[has] - distance[has]).min()
    assert (observed[has] <= rate[has] + cli.RATE_ALLOWANCE).all(), (observed - rate)[has].max()


@st.composite
def two_type_rows(draw):
    """1-6 two-type rows; in half of them the start's level lies within 1e-4 to 1e-1 (of
    1 - b) of the corner (1, 0)'s, where the rate nears 1."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(unit), draw(unit)
        if draw(st.booleans()):
            # x0 = 1 - t, and y0 puts the level at (1 - b)(1 + gap).
            t = draw(st.floats(0.02, 0.98)) * min(1.0, a / (1.0 - b))
            gap = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-4.0, -1.0))
            start = (1.0 - t, (1.0 - b) * (t + gap) / a)
            assume(0.0 < start[1] <= 1.0)
        else:
            start = (draw(st.floats(0.02, 0.98)), draw(st.floats(0.02, 0.98)))
        rows.append((TwoTypeParams(a, b), start))
    return rows


@PROPERTY
@given(two_type_rows(), st.sampled_from([1e-6, 1e-4]))
def test_the_two_type_error_bound_holds(rows, match_eps):
    tol = Tolerance(max_iters=20_000)
    eps, rate, observed, bound, distance = _certified_rows("two-type", rows, match_eps, tol)
    _assert_certified(rate, observed, bound, distance)
    assert (eps >= tol.iter_eps).all()


@st.composite
def four_type_rows(draw):
    """1-6 four-type rows, each on a random slice with each pair split at 2 % to 98 %;
    in a third of them the type-1/2 block, and in a sixth the type-3/4 block, has
    1e-9 < |det M| < 1e-2."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        a, b, c, d, a0, c0 = (draw(unit) for _ in range(6))
        band = draw(st.sampled_from(["", "", "", "12", "12", "34"]))
        det = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-8.5, -2.5))
        if band == "12":
            c = 1.0 - a - det
        elif band == "34":
            d = 1.0 - b - det
        assume(0.01 <= min(c, d) and max(c, d) <= 0.99)
        x1, x3, y1, y3 = (draw(st.floats(0.02, 0.98)) for _ in range(4))
        x1, x3, y1, y3 = x1 * a0, x3 * (1.0 - a0), y1 * c0, y3 * (1.0 - c0)
        start = (x1, a0 - x1, x3, 1.0 - a0 - x3, y1, c0 - y1, y3, 1.0 - c0 - y3)
        rows.append((FourTypeParams(a, b, c, d, a0, c0), start))
    return rows


@settings(PROPERTY, max_examples=100)
@given(four_type_rows(), st.sampled_from([1e-6, 1e-4]))
def test_the_four_type_error_bound_holds(rows, match_eps):
    tol = Tolerance(max_iters=5_000)
    eps, rate, observed, bound, distance = _certified_rows("four-type", rows, match_eps, tol)
    _assert_certified(rate, observed, bound, distance)
    # A row with a block in the band stops on iter_eps alone.
    for row, (p, _) in enumerate(rows):
        if min(abs(1.0 - p.a - p.c), abs(1.0 - p.b - p.d)) <= 0.5 * RATE_BAND:
            assert eps[row] == tol.iter_eps


@settings(PROPERTY, max_examples=100)
@given(st.lists(st.tuples(*[unit] * 8), min_size=1, max_size=6),
       st.sampled_from([1e-12, 1e-9, 1e-7]))
def test_the_general_block_error_bound_holds(rows, iter_eps):
    """Blocks whose four rates need not pair up as a four-type block's do, with
    |det M| > RATE_BAND, stopped on a move of iter_eps or after 5,000 steps."""
    rows = [row for row in rows if abs(row[0] * row[3] - row[1] * row[2]) > RATE_BAND]
    assume(rows)
    blocks = stack_params([PairBlock(*row[:6]) for row in rows])
    starts = np.array([(row[6] * row[4], row[7] * row[5]) for row in rows]).T
    tol = Tolerance(iter_eps=iter_eps, max_iters=5_000)
    run = dynamics.iterate_batch(PairBlock.step, starts, tol, params=blocks)
    block = tuple(vars(blocks).values())
    limit = pair_limit(*block, *starts)
    distance = np.abs(run.end - np.array(limit)).max(axis=0)
    rate, first, second = corner_bound(*block, *run.end)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = first / (1.0 - rate)
        observed = np.where(first > 0.0, second / first, 0.0)
    _assert_certified(np.where(rate < 1.0, rate, np.nan), observed, bound, distance)
