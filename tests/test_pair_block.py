"""The pair block: one closed form for the limits of both of the paper's cases.

A pair block steps (x, y) in the box [0, a0] x [0, c0] by (x, y) + M (P, R),
M = [[-u, beta], [gamma, -w]], P = x (c0 - y), R = (a0 - x) y.  The draws are
mixing probabilities alpha, beta, gamma, delta, and u = 1 - alpha, w = 1 - delta.

Core claims, for alpha, gamma in [0, 1], beta in (0, 1], delta in [0, 1) and
a0, c0 in (0, 1], each face value included:
  - with |det M| >= 1e-2, or exactly on det M = 0, iterate_batch on the block
    step ends within 1e-6 of ``pair_limit`` from interior starts, on every
    cell whose limit contracts by at least ``MIN_CONTRACTION`` per step
  - every limit on det M = 0 lies in the box and meets the start's line
    w x + beta y = L and the fixed set u x (c0 - y) = beta (a0 - x) y to 1e-15
  - two-type limits, the block (0, a, 0, 1 - b) on the unit square, lie within
    1e-13 of the level formula computed in fractions.Fraction
  - the critical section's point, the block (1 - a, a, 1 - a, a) on x + y = 1,
    lies within 1e-15 of the root of its quadratic computed in decimal, its
    slope within 1e-15 of 1 - sqrt(D) in decimal, and its map is the block's
    step, within 1e-15 of the paper's quadratic in fractions.Fraction
  - ``pair_jacobian`` is the Jacobian of the lifted operators through the slice
    coordinates and of ``_pair_step`` by central differences

and the edges: the two-type corner double root, the exact right edge, rows
outside the ranges, section points outside the box, and parameters down to the
smallest normal float.
"""

import sys
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import dynamics, four_types, two_types
from qsobp.four_types import (CriticalMapParams, FourTypeParams, PairBlock, _pair_step,
                              critical_fixed_points, critical_slope, pair_jacobian, pair_limit,
                              pair_point)
from qsobp.simplex import Tolerance
from qsobp.two_types import TwoTypeParams

from helpers import jacobian, stack_params

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

# Each face value half the time.  Positive values reach down to the smallest normal float.
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
positive = st.one_of(st.just(1.0), st.floats(sys.float_info.min, 1.0))
deltas = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
inner = st.floats(0.01, 0.99)
# Steps a cell's limit needs: at a contraction of 5e-3 per step, about 3,200.
MIN_CONTRACTION = 5e-3


def block_limit(block, x, y):
    return tuple(map(float, pair_limit(*block, x, y)))


def contraction(block, x, y):
    """1 less the largest modulus of the block step's Jacobian I + M G at its fixed
    point (x, y), where G is the Jacobian of (P, R); on det M = 0 the unit modulus
    along the line is left out: there MG has the eigenvalues 0 and its trace."""
    m = np.array([[-block.u, block.beta], [block.gamma, -block.w]])
    mg = m @ np.array([[block.c0 - y, -x], [-y, block.a0 - x]])
    mu = [np.trace(mg)] if abs(block.det) < 1e-2 else np.linalg.eigvals(mg)
    return 1.0 - max(abs(1.0 + np.asarray(mu)))


@st.composite
def blocks(draw, on_line):
    """A block exactly on det M = 0 (gamma or beta solved from the others), or at
    least 1e-2 off it."""
    alpha, beta, gamma, delta = draw(alphas), draw(positive), draw(alphas), draw(deltas)
    u, w = 1.0 - alpha, 1.0 - delta
    if on_line:
        product = u * w
        if 0.0 < product <= gamma:
            beta = product / gamma
        else:
            gamma = product / beta
            assume(gamma <= 1.0)
    block = PairBlock(u, beta, gamma, w, draw(positive), draw(positive))
    assume(on_line or abs(block.det) >= 1e-2)
    return block


@settings(PROPERTY, max_examples=100)
@given(st.lists(st.tuples(st.booleans().flatmap(blocks), inner, inner), min_size=1, max_size=8))
def test_pair_limits_are_where_iteration_ends(cells):
    rows, starts, limits = [], [], []
    for block, fx, fy in cells:
        start = (fx * block.a0, fy * block.c0)
        limit = block_limit(block, *start)
        if contraction(block, *limit) >= MIN_CONTRACTION:
            rows.append(block)
            starts.append(start)
            limits.append(limit)
    assume(rows)
    tol = Tolerance(iter_eps=1e-13, max_iters=20_000)
    run = dynamics.iterate_batch(PairBlock.step, np.array(starts).T, tol, params=stack_params(rows))
    assert run.converged.all()
    assert np.abs(run.end.T - limits).max() <= 1e-6


@PROPERTY
@given(blocks(on_line=True), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_a_limit_on_det_m_zero_is_in_the_box_on_its_line_and_fixed(block, fx, fy):
    u, beta, _, w, a0, c0 = vars(block).values()
    x0, y0 = fx * a0, fy * c0
    x, y = block_limit(block, x0, y0)
    assert 0.0 <= x <= a0 and 0.0 <= y <= c0
    level = w * x0 + beta * y0
    assert abs(w * x + beta * y - level) <= 1e-15
    assert abs(u * x * (c0 - y) - beta * (a0 - x) * y) <= 1e-15


def _level_formula(a, b, x, y):
    """The two-type limit in exact rationals: with r = a (x/a + y/(1-b)), (r, 0) when
    r < 1 and (1, (r - 1)(1 - b)/a) when r >= 1."""
    a, b, x, y = map(Fraction, (a, b, x, y))
    reach = a * (x / a + y / (1 - b))
    return (reach, Fraction(0)) if reach < 1 else (Fraction(1), (reach - 1) * (1 - b) / a)


# The limit's y is (r - 1)(1 - b)/a: its rounding error grows like 1/a.
@PROPERTY
@given(inner, inner,
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_two_type_limits_are_the_level_formula(a, b, x0, y0):
    limit = block_limit(PairBlock(0.0, a, 0.0, 1.0 - b, 1.0, 1.0), x0, y0)
    exact = _level_formula(a, b, x0, y0)
    assert max(abs(Fraction(v) - e) for v, e in zip(limit, exact)) <= Fraction(1, 10**13)


def test_the_two_type_corner_double_root_is_the_corner():
    # a = b = 1/2 from (0, 1): a * level = 1, where the two roots meet.
    assert block_limit(PairBlock(0.0, 0.5, 0.0, 0.5, 1.0, 1.0), 0.0, 1.0) == (1.0, 0.0)


@pytest.mark.parametrize("a, b, x0, y0", [(0.1, 0.9, 0.4, 0.8), (0.1, 0.8, 0.9, 0.6)])
def test_the_right_edge_is_exact(a, b, x0, y0):
    # Here the root 2c / (B + sqrt(D)) of x's own quadratic -d w x^2 + B x = c rounds
    # to 1 + 2^-52 and to 1 - 2^-53.
    assert block_limit(PairBlock(0.0, a, 0.0, 1.0 - b, 1.0, 1.0), x0, y0)[0] == 1.0


def test_rows_outside_the_ranges_give_nan_without_a_warning():
    values = np.array([0.0, 1.0, -0.5, np.nan, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = pair_limit(1.0 - values, values, values, 1.0 - values[::-1], values, values, 0.2, 0.1)
        point = pair_point(1.0 - values, values[::-1], 1.0 - values, values, values, 0.0)
    assert np.isnan(x[3]) and np.isnan(y[3]) and np.isnan(point[0][3])


def test_a_section_point_outside_the_box_is_not_clipped():
    # On a + c = 1 the line x + y = 1 misses the box [0, a0] x [0, c0] when a0 + c0 < 1.
    a, a0, c0 = 0.7, 0.3, 0.4
    x, y = map(float, pair_point(1.0 - a, a, a, a0, c0, a))
    assert x > a0 and abs(x + y - 1.0) <= 1e-15
    assert abs((1.0 - a) * x * (c0 - y) - a * (a0 - x) * y) <= 1e-15


def _section_root(a, a0, c0):
    """The critical section's fixed point in 50-digit decimal: the root of
    (2a-1) x^2 - K x + a a0 = 0, K = 1 + a a0 - (1-a)(2 - c0), at which the section
    map's derivative is 1 - sqrt(D), in the form that adds no terms of opposite sign."""
    a, a0, c0 = map(Fraction, (a, a0, c0))
    quad, big_k = 2 * a - 1, 1 + a * a0 - (1 - a) * (2 - c0)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = [Decimal(v.numerator) / Decimal(v.denominator)
                 for v in (quad, big_k, big_k * big_k - 4 * quad * a * a0, a * a0)]
        quad, big_k, disc, product = exact
        root = disc.sqrt()
        return 2 * product / (big_k + root) if big_k > 0 else (big_k - root) / (2 * quad)


# a log-spaced over [1e-16, 1/2) and, by 1 - a, over (1/2, 1 - 1e-16], and within
# 2^-52 to 2^-20 of 1/2 on either side.
_SMALL = np.logspace(-16.0, np.log10(0.5), 80, endpoint=False)
_NEAR_HALF = 0.5 + np.outer([-1.0, 1.0], 2.0 ** -np.arange(20.0, 53.0)).ravel()


@pytest.mark.parametrize("a0, c0", [(0.3, 0.6), (0.7, 0.2), (0.45, 0.9)])
def test_the_section_point_is_the_root_of_its_quadratic(a0, c0):
    # The section block (1 - a, a, 1 - a, a) is exactly on det M = 0 for every a.
    for a in np.concatenate([_SMALL, 1.0 - _SMALL, _NEAR_HALF]).tolist():
        point = critical_fixed_points(CriticalMapParams(a, a0, c0))[0]
        assert abs(Decimal(point) - _section_root(a, a0, c0)) <= Decimal("1e-15"), a


def _section_slope(a, a0, c0):
    """The section map's slope at its point, 1 - sqrt(D), in 50-digit decimal."""
    a, a0, c0 = map(Fraction, (a, a0, c0))
    quad, big_k = 2 * a - 1, 1 + a * a0 - (1 - a) * (2 - c0)
    disc = big_k * big_k - 4 * quad * a * a0
    with localcontext() as ctx:
        ctx.prec = 50
        return 1 - (Decimal(disc.numerator) / Decimal(disc.denominator)).sqrt()


def test_the_section_slope_is_one_minus_the_root_of_the_discriminant():
    # 226 values of a, down to 1e-16 from 0 and from 1, at 14 (a0, c0) pairs.
    rng = np.random.default_rng(41)
    cells = 0
    for a0, c0 in rng.uniform(0.01, 0.99, (14, 2)).tolist():
        for a in np.concatenate([_SMALL, 1.0 - _SMALL, _NEAR_HALF]).tolist():
            slope = critical_slope(CriticalMapParams(a, a0, c0))
            assert abs(Decimal(slope) - _section_slope(a, a0, c0)) <= Decimal("1e-15"), (a, a0, c0)
            cells += 1
    assert cells >= 3_000


def _section_quadratic(a, a0, c0, x):
    """The paper's section map (2a-1) x^2 + ((1-a)(2-c0) - a a0) x + a a0, term by term."""
    quad, lin = 2.0 * a - 1.0, (1.0 - a) * (2.0 - c0) - a * a0
    return quad * x * x + lin * x + a * a0


def test_the_section_map_is_the_section_blocks_step():
    # 10^6 rows in four blocks; the first 2,000 also against the quadratic in Fraction.
    rng = np.random.default_rng(42)
    for block in range(4):
        a, a0, c0 = rng.uniform(1e-3, 1.0 - 1e-3, (3, 250_000))
        x = rng.uniform(0.0, 1.0, 250_000)
        (image,) = CriticalMapParams(a, a0, c0).step((x,))
        y = 1.0 - x
        np.testing.assert_array_equal(image, _pair_step(1.0 - a, a, 1.0 - a, a, x, a0 - x, y, c0 - y)[0])
        assert np.abs(image - _section_quadratic(a, a0, c0, x)).max() <= 5.6e-16
        if block == 0:
            for row in np.stack([a, a0, c0, x, image], axis=1)[:2000].tolist():
                A, A0, C0, X = map(Fraction, row[:4])
                exact = (2 * A - 1) * X * X + ((1 - A) * (2 - C0) - A * A0) * X + A * A0
                assert abs(Fraction(row[4]) - exact) <= Fraction(1, 10**15), row


def test_parameters_down_to_the_smallest_normal_float_keep_their_limits():
    # The discriminant's squares would underflow here; its hypot does not.
    for a in (1e-170, 1e-300, sys.float_info.min):
        assert block_limit(PairBlock(0.0, a, 0.0, 0.5, 1.0, 1.0), 0.25, 0.5) == (0.25, 0.0)
    assert abs(critical_fixed_points(CriticalMapParams(1e-200, 0.3, 0.6))[0] - 0.4) <= 2.3e-16


def test_a_fixed_corner_keeps_its_limit_where_a_rate_squared_underflows():
    # beta^2 underflows to 0 at the corner (a0, c0) of u = 0, where y's quadratic is
    # beta^2 y^2 = 0 and its root formula gave 0 / 0.
    for beta in (1e-160, 2.7897025091871444e-175, sys.float_info.min):
        assert block_limit(PairBlock(0.0, beta, 0.0, 1.0, 1.0, 1.0), 1.0, 0.0) == (1.0, 0.0)


def _through_slice(full, rows, columns):
    """The 2 x 2 Jacobian of coordinates ``rows`` of a lifted map on a slice, from its
    full Jacobian: each slice coordinate ``i`` moves coordinate i up and i + 1 down."""
    return np.array([[full[r, c] - full[r, c + 1] for c in columns] for r in rows])


@PROPERTY
@given(inner, inner, inner, inner)
def test_the_pair_jacobian_is_the_two_type_lift_through_its_slice(a, b, fx, fy):
    p = TwoTypeParams(a, b)
    full = jacobian(two_types.lift_operator(p), np.array([fx, 1.0 - fx, fy, 1.0 - fy]))
    block = pair_jacobian(0.0, a, 0.0, 1.0 - b, 1.0, 1.0, fx, fy)
    assert np.abs(block - _through_slice(full, (0, 2), (0, 2))).max() <= 1e-15


@PROPERTY
@given(st.tuples(*[inner] * 6), inner, inner, inner, inner)
def test_the_pair_jacobian_is_the_four_type_lift_through_its_slice(values, f1, f3, g1, g3):
    p = FourTypeParams(*values)
    a0, c0 = p.a0, p.c0
    x1, x3, y1, y3 = f1 * a0, f3 * (1.0 - a0), g1 * c0, g3 * (1.0 - c0)
    state = np.array([x1, a0 - x1, x3, 1.0 - a0 - x3, y1, c0 - y1, y3, 1.0 - c0 - y3])
    full = jacobian(four_types.lift_operator(p), state)
    block12 = pair_jacobian(1.0 - p.a, p.a, p.c, 1.0 - p.c, a0, c0, x1, y1)
    block34 = pair_jacobian(1.0 - p.b, p.b, p.d, 1.0 - p.d, 1.0 - a0, 1.0 - c0, x3, y3)
    assert np.abs(block12 - _through_slice(full, (0, 4), (0, 4))).max() <= 1e-15
    assert np.abs(block34 - _through_slice(full, (2, 6), (2, 6))).max() <= 1e-15


# u and gamma on the face 0 half the time, beta and w in (0, 1], a0 and c0 in [0.01, 1].
faces = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
rates = st.floats(1e-3, 1.0)


@PROPERTY
@given(faces, rates, faces, rates, st.floats(0.01, 1.0), st.floats(0.01, 1.0), inner, inner)
def test_the_pair_jacobian_is_the_central_difference_of_the_step(u, beta, gamma, w, a0, c0,
                                                                 fx, fy):
    block = PairBlock(u, beta, gamma, w, a0, c0)
    point, h = np.array([fx * a0, fy * c0]), 1e-5
    numeric = np.empty((2, 2))
    for col in range(2):
        step = np.eye(2)[col] * h
        numeric[:, col] = np.subtract(block.step(point + step), block.step(point - step)) / (2 * h)
    assert np.abs(pair_jacobian(u, beta, gamma, w, a0, c0, *point) - numeric).max() <= 1e-9
