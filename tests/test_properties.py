"""Property tests of the three closed-form cases over their whole domains.

Core claims, for in-domain parameters and starts of the two-type, the
four-type and the critical-line case:
  - a predictor raises FixedPointInputError exactly when dynamics.is_fixed
    holds for its start under the same tolerance
  - every predicted limit is a fixed point of the case's step to 1e-12
  - one step conserves x/a + y/(1-b) (two-type) and the four slice sums
    (four-type) to 1e-12
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsobp import dynamics
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CriticalMapParams,
    FourTypeParams,
    critical_fixed_points,
    predict_limit,
    predict_limit_critical,
    slice_sums,
)
from qsobp.simplex import Tolerance, make_state
from qsobp.two_types import TwoTypeParams, invariant_line_level
from qsobp.two_types import predict_limit as predict_limit_two

# Reproducible examples, and no example database written next to the tests.
PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)

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


@st.composite
def four_type_cases(draw):
    a0, c0 = draw(unit), draw(unit)
    fx1, fx3, fy1, fy3 = (draw(fraction) for _ in range(4))
    x1, x3, y1, y3 = fx1 * a0, fx3 * (1.0 - a0), fy1 * c0, fy3 * (1.0 - c0)
    state = make_state((x1, a0 - x1, x3, 1.0 - a0 - x3), (y1, c0 - y1, y3, 1.0 - c0 - y3))
    sums = slice_sums(state)
    p = FourTypeParams(draw(unit), draw(unit), draw(unit), draw(unit), a0=sums[0], c0=sums[2])
    assume(not (p.on_critical_line() or p.mirror_on_critical_line()))
    return p, state


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
