"""The pair block: one closed form for the limits of both of the paper's cases.

A pair block steps (x, y) in the box [0, a0] x [0, c0] by (x, y) + M (P, R),
M = [[alpha - 1, beta], [gamma, delta - 1]], P = x (c0 - y), R = (a0 - x) y.

Core claims, for alpha, gamma in [0, 1], beta in (0, 1], delta in [0, 1) and
a0, c0 in (0, 1], each face value included:
  - with |det M| >= 1e-2, or exactly on det M = 0, iterate_batch on the block
    step ends within 1e-6 of ``pair_limit`` from interior starts, on every
    cell whose limit contracts by at least ``MIN_CONTRACTION`` per step
  - every limit on det M = 0 lies in the box and meets the start's line
    (1 - delta) x + beta y = L and the fixed set (1 - alpha) x (c0 - y) =
    beta (a0 - x) y to 1e-15
  - two-type limits, the block (1, a, 0, b) on the unit square, lie within
    1e-13 of the level formula computed in fractions.Fraction

and the edges: the two-type corner double root, the exact right edge, rows
outside the ranges, and section points outside the box.
"""

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import dynamics
from qsobp.four_types import _pair_step, pair_limit, pair_point
from qsobp.simplex import Tolerance

from helpers import stack_params

PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

# Each face value half the time.  Positive values reach down to 1e-50: the closed
# form squares products of up to three of them, which smaller values would underflow.
alphas = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
positive = st.one_of(st.just(1.0), st.floats(1e-50, 1.0))
deltas = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))
inner = st.floats(0.01, 0.99)
# Steps a cell's limit needs: at a contraction of 5e-3 per step, about 3,200.
MIN_CONTRACTION = 5e-3


@dataclass(frozen=True)
class Block:
    alpha: float
    beta: float
    gamma: float
    delta: float
    a0: float
    c0: float

    def step(self, s):
        x, y = s
        x, _, y, _ = _pair_step(self.alpha, self.beta, self.gamma, self.delta,
                                x, self.a0 - x, y, self.c0 - y)
        return (x, y)

    @property
    def det(self):
        return (self.alpha - 1.0) * (self.delta - 1.0) - self.beta * self.gamma

    def limit(self, x, y):
        return tuple(map(float, pair_limit(*vars(self).values(), x, y)))

    def contraction(self, x, y):
        """1 less the largest modulus of the step's Jacobian I + M G at its fixed point
        (x, y), where G is the Jacobian of (P, R); on det M = 0 the unit modulus along
        the line is left out: there MG has the eigenvalues 0 and its trace."""
        m = np.array([[self.alpha - 1.0, self.beta], [self.gamma, self.delta - 1.0]])
        mg = m @ np.array([[self.c0 - y, -x], [-y, self.a0 - x]])
        mu = [np.trace(mg)] if abs(self.det) < 1e-2 else np.linalg.eigvals(mg)
        return 1.0 - max(abs(1.0 + np.asarray(mu)))


@st.composite
def blocks(draw, on_line):
    """A block exactly on det M = 0 (gamma or beta solved from the others), or at
    least 1e-2 off it."""
    alpha, beta, gamma, delta = draw(alphas), draw(positive), draw(alphas), draw(deltas)
    if on_line:
        product = (1.0 - alpha) * (1.0 - delta)
        if 0.0 < product <= gamma:
            beta = product / gamma
        else:
            gamma = product / beta
            assume(gamma <= 1.0)
    block = Block(alpha, beta, gamma, delta, draw(positive), draw(positive))
    assume(on_line or abs(block.det) >= 1e-2)
    return block


@settings(PROPERTY, max_examples=100)
@given(st.lists(st.tuples(st.booleans().flatmap(blocks), inner, inner), min_size=1, max_size=8))
def test_pair_limits_are_where_iteration_ends(cells):
    rows, starts, limits = [], [], []
    for block, fx, fy in cells:
        start = (fx * block.a0, fy * block.c0)
        limit = block.limit(*start)
        if block.contraction(*limit) >= MIN_CONTRACTION:
            rows.append(block)
            starts.append(start)
            limits.append(limit)
    assume(rows)
    tol = Tolerance(iter_eps=1e-13, max_iters=20_000)
    run = dynamics.iterate_batch(Block.step, np.array(starts).T, tol, params=stack_params(rows))
    assert run.converged.all()
    assert np.abs(run.end.T - limits).max() <= 1e-6


@PROPERTY
@given(blocks(on_line=True), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_a_limit_on_det_m_zero_is_in_the_box_on_its_line_and_fixed(block, fx, fy):
    alpha, beta, _, delta, a0, c0 = vars(block).values()
    x0, y0 = fx * a0, fy * c0
    x, y = block.limit(x0, y0)
    assert 0.0 <= x <= a0 and 0.0 <= y <= c0
    level = (1.0 - delta) * x0 + beta * y0
    assert abs((1.0 - delta) * x + beta * y - level) <= 1e-15
    assert abs((1.0 - alpha) * x * (c0 - y) - beta * (a0 - x) * y) <= 1e-15


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
    limit = Block(1.0, a, 0.0, b, 1.0, 1.0).limit(x0, y0)
    exact = _level_formula(a, b, x0, y0)
    assert max(abs(Fraction(v) - e) for v, e in zip(limit, exact)) <= Fraction(1, 10**13)


def test_the_two_type_corner_double_root_is_the_corner():
    # a = b = 1/2 from (0, 1): a * level = 1, where the two roots meet.
    assert Block(1.0, 0.5, 0.0, 0.5, 1.0, 1.0).limit(0.0, 1.0) == (1.0, 0.0)


@pytest.mark.parametrize("a, b, x0, y0", [(0.1, 0.9, 0.4, 0.8), (0.1, 0.8, 0.9, 0.6)])
def test_the_right_edge_is_exact(a, b, x0, y0):
    # Here the root 2c / (B + sqrt(D)) of x's own quadratic -d w x^2 + B x = c rounds
    # to 1 + 2^-52 and to 1 - 2^-53.
    assert Block(1.0, a, 0.0, b, 1.0, 1.0).limit(x0, y0)[0] == 1.0


def test_rows_outside_the_ranges_give_nan_without_a_warning():
    values = np.array([0.0, 1.0, -0.5, np.nan, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y = pair_limit(values, values, values, values[::-1], values, values, 0.2, 0.1)
        point = pair_point(values, values[::-1], values, values, values, 0.0)
    assert np.isnan(x[3]) and np.isnan(y[3]) and np.isnan(point[0][3])


def test_a_section_point_outside_the_box_is_not_clipped():
    # On a + c = 1 the line x + y = 1 misses the box [0, a0] x [0, c0] when a0 + c0 < 1.
    a, a0, c0 = 0.7, 0.3, 0.4
    x, y = map(float, pair_point(a, a, 1.0 - a, a0, c0, a))
    assert x > a0 and abs(x + y - 1.0) <= 1e-15
    assert abs((1.0 - a) * x * (c0 - y) - a * (a0 - x) * y) <= 1e-15
