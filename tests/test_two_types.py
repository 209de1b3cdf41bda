"""Two-type case: reduced map, lift, conserved level, limit prediction.

Core claims:
  - the reduced map fixes y = 0 and x = 1 pointwise and moves interior points
  - the lifted operator projects back onto the reduced map, and its tensors
    are the literal tables of the one mixing pair, byte for byte
  - x/a + y/(1-b) is conserved along trajectories
  - x is non-decreasing, y non-increasing
  - iterated limits match the closed-form prediction on both branches
  - below a * level = 1 the limit's y is exactly 0 and the class m1-extinct;
    above it the limit's x is exactly 1 and the class f2-extinct
  - the Jacobian along the fixed segments has one unit eigenvalue, except
    at the corner (1, 0) where both are one
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsobp import dynamics
from qsobp.cli import CASES
from qsobp.errors import FixedPointInputError
from qsobp.simplex import Tolerance, make_state

from helpers import (
    apply,
    conserved_quantity_drift,
    invariant_line_level,
    predict_one,
    state_distance,
    two_type_from_weights,
)
from qsobp.two_types import (
    TwoTypeParams,
    lift_operator,
    predict_limit,
)


def test_params_validate_open_interval():
    with pytest.raises(ValueError):
        TwoTypeParams(a=0.0, b=0.5)
    with pytest.raises(ValueError):
        TwoTypeParams(a=0.5, b=1.0)


def test_params_from_weights():
    p = two_type_from_weights(female=(2.0, 1.0), male=(1.0, 3.0))
    assert p.a == pytest.approx(2.0 / 3.0)
    assert p.b == pytest.approx(0.25)


# -- the reduced map ---------------------------------------------------------


def test_horizontal_segment_is_fixed():
    p = TwoTypeParams(a=0.7, b=0.2)
    for x in (0.0, 0.4, 0.99):
        assert p.step((x, 0.0)) == (x, 0.0)


def test_right_edge_is_fixed():
    p = TwoTypeParams(a=0.7, b=0.2)
    for y in (0.0, 0.5, 1.0):
        assert p.step((1.0, y)) == (1.0, y)


def test_step_value():
    p = TwoTypeParams(a=2.0 / 3.0, b=0.4)
    x, y = p.step((0.5, 0.5))
    assert x == pytest.approx(2.0 / 3.0)
    assert y == pytest.approx(0.5 * (0.5 + 0.4 * 0.5))


def test_step_stays_in_unit_square():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p = TwoTypeParams(a=float(rng.uniform(0.05, 0.95)), b=float(rng.uniform(0.05, 0.95)))
        s = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        x, y = p.step(s)
        assert -1e-15 <= x <= 1.0 + 1e-15
        assert -1e-15 <= y <= 1.0 + 1e-15


def test_monotone_coordinates_along_trajectories():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = TwoTypeParams(a=float(rng.uniform(0.05, 0.95)), b=float(rng.uniform(0.05, 0.95)))
        x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        for _ in range(300):
            nx, ny = p.step((x, y))
            assert nx >= x - 1e-15
            assert ny <= y + 1e-15
            x, y = nx, ny


# -- the lift ----------------------------------------------------------------


def test_lift_projects_onto_reduced_map():
    rng = np.random.default_rng(4)
    p = TwoTypeParams(a=0.37, b=0.81)
    op = lift_operator(p)
    for _ in range(100):
        x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        lifted_out = apply(op, make_state([x, 1.0 - x], [y, 1.0 - y]))
        assert (lifted_out[0], lifted_out[2]) == pytest.approx(p.step((x, y)), abs=1e-15)


def test_lift_tensors_are_stochastic():
    op = lift_operator(TwoTypeParams(a=0.3, b=0.6))
    assert np.abs(op.tensors.pf.sum(axis=2) - 1.0).max() <= 1e-15
    assert np.abs(op.tensors.pm.sum(axis=2) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("a, b", [(0.3, 0.6), (0.37, 0.81), (0.1, 0.9), (2.0 / 3.0, 0.5)])
def test_lift_tensors_are_the_literal_tables(a, b):
    # pf[i, k] and pm[i, k]: the daughter and the son rows of mother i and father k.
    pf = np.array([[[1.0, 0.0], [1.0, 0.0]], [[a, 1.0 - a], [0.0, 1.0]]])
    pm = np.array([[[1.0, 0.0], [0.0, 1.0]], [[b, 1.0 - b], [0.0, 1.0]]])
    tensors = lift_operator(TwoTypeParams(a=a, b=b)).tensors
    for built, table in ((tensors.pf, pf), (tensors.pm, pm)):
        assert built.dtype == table.dtype and built.shape == table.shape
        assert built.tobytes() == table.tobytes()


def test_lifted_fixed_line_states_are_fixed():
    op = lift_operator(TwoTypeParams(a=0.5, b=0.5))
    for x in (0.0, 0.3, 0.9):
        s = make_state([x, 1.0 - x], [0.0, 1.0])
        assert state_distance(apply(op, s), s) == 0.0


# -- conserved level ---------------------------------------------------------


def test_invariant_level_value():
    p = TwoTypeParams(a=0.4, b=0.5)
    assert invariant_line_level(p, (0.2, 0.25)) == pytest.approx(1.0)
    assert invariant_line_level(p, (0.0, 0.0)) == 0.0


def test_invariant_level_is_conserved():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = TwoTypeParams(a=float(rng.uniform(0.1, 0.9)), b=float(rng.uniform(0.1, 0.9)))
        s = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        run = dynamics.iterate_map(p.step, s)
        # Unthinned, so the drift below covers every step.
        assert len(run.states) < dynamics.TRAJECTORY_STORE_CAP
        drift = conserved_quantity_drift(run, lambda q: invariant_line_level(p, q))
        assert drift <= 1e-12


# -- fixed segments ----------------------------------------------------------


def test_interior_point_moves():
    p = TwoTypeParams(a=0.5, b=0.5)
    assert p.step((0.5, 0.5)) != (0.5, 0.5)


# -- limit prediction --------------------------------------------------------


def test_predict_low_level_branch():
    p = TwoTypeParams(a=0.4, b=0.5)
    assert predict_one(predict_limit, p, (0.2, 0.25)) == pytest.approx((0.4, 0.0))


def test_predict_high_level_branch():
    p = TwoTypeParams(a=0.8, b=0.5)
    # level = 0.6/0.8 + 0.5/0.5 = 1.75, a*level = 1.4 >= 1
    limit = predict_one(predict_limit, p, (0.6, 0.5))
    assert limit == pytest.approx((1.0, 0.25))


def test_predict_boundary_level_gives_corner():
    p = TwoTypeParams(a=0.5, b=0.5)
    assert predict_one(predict_limit, p, (0.5, 0.5)) == pytest.approx((1.0, 0.0))


def test_predict_rejects_fixed_start():
    p = TwoTypeParams(a=0.4, b=0.5)
    with pytest.raises(FixedPointInputError):
        predict_one(predict_limit, p, (0.3, 0.0))
    with pytest.raises(FixedPointInputError):
        predict_one(predict_limit, p, (1.0, 0.5))


@pytest.mark.parametrize(
    "a, start, expected",
    [
        (0.4, ([0.2, 0.8], [0.25, 0.75]), ([0.4, 0.6], [0.0, 1.0])),  # low branch
        (0.8, ([0.6, 0.4], [0.5, 0.5]), ([1.0, 0.0], [0.25, 0.75])),  # high branch
        (0.8, ([1.0, 0.0], [0.5, 0.5]), None),  # fixed start
    ],
)
def test_predict_full_state(a, start, expected):
    p = TwoTypeParams(a=a, b=0.5)
    point = make_state(*start)[[0, 2]]  # (x1, y1)
    if expected is None:
        with pytest.raises(FixedPointInputError):
            predict_one(predict_limit, p, point)
    else:
        x, y = predict_one(predict_limit, p, point)
        limit = make_state([x, 1.0 - x], [y, 1.0 - y])
        assert state_distance(limit, make_state(*expected)) <= 1e-15


@pytest.mark.parametrize("start", [(1.5, 0.5), (0.5, -0.1), (3.0, -2.0), (float("nan"), 0.5)])
def test_predict_rejects_starts_outside_the_unit_square(start):
    with pytest.raises(ValueError, match="unit square"):
        predict_one(predict_limit, TwoTypeParams(a=0.4, b=0.5), start)


def test_predict_reads_the_fixed_band_from_the_tolerance():
    # One step moves (0.5, 1e-6) by a (1 - x) y = 2e-7.
    p, start = TwoTypeParams(a=0.4, b=0.5), (0.5, 1e-6)
    limit = predict_one(predict_limit, p, start, Tolerance(abs_eps=1e-9))
    assert limit == pytest.approx((0.5 + 0.4 * 2e-6, 0.0))
    with pytest.raises(FixedPointInputError):
        predict_one(predict_limit, p, start, Tolerance(abs_eps=1e-6))


def test_iterated_limits_match_prediction():
    rng = np.random.default_rng(6)
    tol = Tolerance()
    for _ in range(50):
        p = TwoTypeParams(a=float(rng.uniform(0.05, 0.95)), b=float(rng.uniform(0.05, 0.95)))
        s = (float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
        predicted = predict_one(predict_limit, p, s)
        run = dynamics.iterate_map(p.step, s, tol)
        end = run.states[-1]
        assert max(abs(u - v) for u, v in zip(end, predicted)) <= 1e-6


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(*[st.floats(0.01, 0.99)] * 4), min_size=1, max_size=8))
def test_each_branch_is_exact_and_names_its_class(rows):
    a, b, x, y = map(np.array, zip(*rows))
    p, starts = TwoTypeParams(a, b), np.stack([x, y], axis=1)
    limits, fixed, _ = predict_limit(p, starts)
    case = CASES["two-type"]
    classes = [case.labels[c] for c in case.label(p, limits)]
    reach = a * invariant_line_level(p, (x, y))
    for i in np.flatnonzero(~fixed):
        if reach[i] < 1.0 - 1e-12:
            assert limits[i, 1] == 0.0 and classes[i] == "m1-extinct"
        elif reach[i] > 1.0 + 1e-12:
            assert limits[i, 0] == 1.0 and classes[i] == "f2-extinct"


def test_branch_dichotomy():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = TwoTypeParams(a=float(rng.uniform(0.05, 0.95)), b=float(rng.uniform(0.05, 0.95)))
        s = (float(rng.uniform(0.01, 0.99)), float(rng.uniform(0.01, 0.99)))
        reach = p.a * invariant_line_level(p, s)
        run = dynamics.iterate_map(p.step, s)
        x_end, y_end = run.states[-1]
        if reach < 1.0 - 1e-3:
            assert y_end <= 1e-6 and x_end < 1.0 - 1e-6
        elif reach > 1.0 + 1e-3:
            assert x_end >= 1.0 - 1e-6


# -- Jacobian structure ------------------------------------------------------


def test_jacobian_matches_closed_form():
    p = TwoTypeParams(a=0.3, b=0.7)
    x, y = 0.2, 0.6
    expected = np.array(
        [
            [1.0 - p.a * y, p.a * (1.0 - x)],
            [y * (1.0 - p.b), x * (1.0 - p.b) + p.b],
        ]
    )
    np.testing.assert_allclose(CASES["two-type"].planar(p)[1]((x, y)), expected)


def test_unit_eigenvalue_along_fixed_segments():
    p = TwoTypeParams(a=0.6, b=0.3)
    jacobian = CASES["two-type"].planar(p)[1]
    for point in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.4), (1.0, 1.0)):
        eigs = np.linalg.eigvals(jacobian(point))
        moduli = sorted(abs(eigs))
        assert abs(moduli[1] - 1.0) <= 1e-9
        assert moduli[0] < 1.0
    # at the corner both eigenvalues are one
    corner = np.linalg.eigvals(jacobian((1.0, 0.0)))
    np.testing.assert_allclose(sorted(abs(corner)), [1.0, 1.0], atol=1e-12)
