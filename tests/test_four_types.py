"""Four-type case: slice invariance, decoupled blocks, limits, critical map.

Core claims:
  - the full step conserves all four pairwise sums and fixes the predicted
    corner states
  - the type-1/2 block trajectory equals the (x1, y1) coordinates of the
    full trajectory, and the type-3/4 block is its parameter-swapped twin
  - off the critical line the fixed points and their stability follow the
    sign of a+c-1, and iterated limits match the four-branch prediction
  - on the critical line x+y is conserved, the fixed set is the stated
    curve, the predicted limit is the curve's point on the start's line x+y,
    and the one-dimensional section map has one attracting fixed point,
    correct slope, and no low-period cycles
"""

import numpy as np
import pytest

from qsobp import dynamics
from qsobp.dynamics import StabilityKind
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CriticalMapParams,
    FourTypeParams,
    classify_sub12_fixed_points,
    critical_fixed_points,
    critical_slope,
    critical_step,
    fixed_curve,
    lift_operator,
    limit_branch,
    mirror_params,
    predict_limit,
    predict_limit_critical,
    slice_sums,
    sub12_fixed_points,
    survivor_label,
)
from qsobp.simplex import Tolerance, make_state

from helpers import scan_periodic_points, state_distance, sub34_step


def params(a=0.3, b=0.3, c=0.3, d=0.3, a0=0.5, c0=0.5) -> FourTypeParams:
    return FourTypeParams(a=a, b=b, c=c, d=d, a0=a0, c0=c0)


# -- full step ---------------------------------------------------------------


def test_corner_state_is_fixed():
    p = params()
    s = make_state([0.0, p.a0, 0.0, 1.0 - p.a0], [0.0, p.c0, 0.0, 1.0 - p.c0])
    assert p.step(s.coords()) == s.coords()


def test_pairwise_sums_conserved_per_step():
    rng = np.random.default_rng(10)
    p = params(a=0.61, b=0.27, c=0.44, d=0.83, a0=0.4, c0=0.7)
    for _ in range(100):
        x = rng.dirichlet(np.ones(4))
        y = rng.dirichlet(np.ones(4))
        s = tuple(x) + tuple(y)
        out = p.step(s)
        for lo in (0, 2, 4, 6):
            before = s[lo] + s[lo + 1]
            after = out[lo] + out[lo + 1]
            assert abs(after - before) <= 1e-15


def test_every_image_lands_in_its_own_slice():
    # One step later, the pairwise sums name the slice the whole forward
    # orbit stays in.
    rng = np.random.default_rng(11)
    p = params(a=0.7, b=0.4, c=0.2, d=0.9)
    x = rng.dirichlet(np.ones(4))
    y = rng.dirichlet(np.ones(4))
    s = make_state(x, y)
    sums = slice_sums(s)
    out = p.step(s.coords())
    assert slice_sums(make_state(out[:4], out[4:])) == pytest.approx(sums, abs=1e-15)


def test_full_step_agrees_with_lifted_tensors():
    rng = np.random.default_rng(12)
    p = params(a=0.35, b=0.65, c=0.52, d=0.18)
    op = lift_operator(p)
    for _ in range(50):
        s = make_state(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
        assert max(abs(u - v) for u, v in zip(p.step(s.coords()), op.apply(s).coords())) <= 1e-15


# -- decoupled blocks --------------------------------------------------------


def test_sub12_corners_are_fixed():
    p = params()
    assert p.sub12_step((0.0, 0.0)) == (0.0, 0.0)
    assert p.sub12_step((p.a0, p.c0)) == (p.a0, p.c0)


def test_sub12_step_value():
    p = params(a=0.3, c=0.3, a0=0.5, c0=0.5)
    x, y = p.sub12_step((0.25, 0.25))
    assert x == pytest.approx(0.225)
    assert y == pytest.approx(0.225)


def test_sub12_stays_in_box():
    rng = np.random.default_rng(13)
    p = params(a=0.9, c=0.85, a0=0.3, c0=0.6)
    for _ in range(200):
        x = float(rng.uniform(0, p.a0))
        y = float(rng.uniform(0, p.c0))
        nx, ny = p.sub12_step((x, y))
        assert -1e-15 <= nx <= p.a0 + 1e-15
        assert -1e-15 <= ny <= p.c0 + 1e-15


def test_sub34_corners_are_fixed():
    p = params(a0=0.4, c0=0.7)
    assert sub34_step(p, (0.0, 0.0)) == (0.0, 0.0)
    assert sub34_step(p, (1.0 - p.a0, 1.0 - p.c0)) == (1.0 - p.a0, 1.0 - p.c0)


def test_sub34_is_the_mirrored_sub12():
    p = params(a=0.2, b=0.8, c=0.55, d=0.31, a0=0.35, c0=0.62)
    q = mirror_params(p)
    assert (q.a, q.b, q.c, q.d, q.a0, q.c0) == (p.b, p.a, p.d, p.c, 1 - p.a0, 1 - p.c0)
    assert sub34_step(p, (0.2, 0.1)) == q.sub12_step((0.2, 0.1))


def test_sub34_interior_converges_to_far_corner():
    # second-block sums above one pull the block to its full corner
    p = params(a=0.3, b=0.7, c=0.3, d=0.7, a0=0.5, c0=0.5)
    s = (0.1, 0.2)
    for _ in range(5000):
        s = sub34_step(p, s)
    assert s == pytest.approx((0.5, 0.5), abs=1e-9)


def test_block_trajectory_matches_full_trajectory():
    p = params(a=0.42, b=0.66, c=0.37, d=0.21, a0=0.55, c0=0.45)
    full = (0.2, 0.35, 0.25, 0.2, 0.3, 0.15, 0.2, 0.35)
    block = (full[0], full[4])
    for _ in range(200):
        full = p.step(full)
        block = p.sub12_step(block)
        assert abs(full[0] - block[0]) <= 1e-13
        assert abs(full[4] - block[1]) <= 1e-13


# -- fixed points and stability ----------------------------------------------


def test_isolated_fixed_points_off_critical_line():
    fixed = sub12_fixed_points(params(a=0.3, c=0.3))
    assert not fixed.critical
    assert fixed.points == ((0.0, 0.0), (0.5, 0.5))


def test_fixed_curve_passes_through_both_corners():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    curve = fixed_curve(p)
    assert curve(0.0) == 0.0
    assert curve(p.a0) == pytest.approx(p.c0)


def test_fixed_curve_points_have_tiny_residual():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    fixed = sub12_fixed_points(p, curve_samples=21)
    assert fixed.critical
    for x, y in fixed.points:
        nx, ny = p.sub12_step((x, y))
        assert max(abs(nx - x), abs(ny - y)) <= 1e-12


def test_classification_below_critical_line():
    verdicts = classify_sub12_fixed_points(params(a=0.3, c=0.3))
    assert verdicts[(0.0, 0.0)].kind is StabilityKind.ATTRACTING
    assert verdicts[(0.5, 0.5)].kind is StabilityKind.SADDLE


def test_classification_above_critical_line():
    verdicts = classify_sub12_fixed_points(params(a=0.7, c=0.7))
    assert verdicts[(0.0, 0.0)].kind is StabilityKind.SADDLE
    assert verdicts[(0.5, 0.5)].kind is StabilityKind.ATTRACTING


def test_classification_on_critical_line_is_non_hyperbolic():
    verdicts = classify_sub12_fixed_points(params(a=0.4, c=0.6))
    assert verdicts
    for verdict in verdicts.values():
        assert verdict.kind is StabilityKind.NON_HYPERBOLIC


# -- limit prediction --------------------------------------------------------


def _interior_state(a0, c0):
    return make_state(
        [0.3 * a0, 0.7 * a0, 0.4 * (1 - a0), 0.6 * (1 - a0)],
        [0.25 * c0, 0.75 * c0, 0.55 * (1 - c0), 0.45 * (1 - c0)],
    )


@pytest.mark.parametrize(
    "a,b,c,d,expected_x,expected_y,label",
    [
        (0.3, 0.3, 0.3, 0.3, (0, 0.5, 0, 0.5), (0, 0.5, 0, 0.5), "f2,f4|m2,m4"),
        (0.3, 0.7, 0.3, 0.7, (0, 0.5, 0.5, 0), (0, 0.5, 0.5, 0), "f2,f3|m2,m3"),
        (0.7, 0.3, 0.7, 0.3, (0.5, 0, 0, 0.5), (0.5, 0, 0, 0.5), "f1,f4|m1,m4"),
        (0.7, 0.7, 0.7, 0.7, (0.5, 0, 0.5, 0), (0.5, 0, 0.5, 0), "f1,f3|m1,m3"),
    ],
)
def test_predict_limit_four_branches(a, b, c, d, expected_x, expected_y, label):
    p = params(a=a, b=b, c=c, d=d)
    state = _interior_state(p.a0, p.c0)
    limit = predict_limit(p, state)
    assert state_distance(limit, make_state(expected_x, expected_y)) <= 1e-15
    assert survivor_label(p) == label


@pytest.mark.parametrize(
    "p,label",
    [
        (params(a=0.4, c=0.6, a0=0.35, c0=0.6), "f1,f2,f4|m1,m2,m4"),
        (params(b=0.45, d=0.55, a0=0.35, c0=0.6), "f2,f3,f4|m2,m3,m4"),
        (params(a=0.7, c=0.3, b=0.8, d=0.2, a0=0.35, c0=0.6), "f1,f2,f3,f4|m1,m2,m3,m4"),
    ],
    ids=["a+c=1", "b+d=1", "both"],
)
def test_predict_limit_on_each_critical_line(p, label):
    state = _interior_state(p.a0, p.c0)
    limit = predict_limit(p, state)
    x, y = limit.female.probs, limit.male.probs
    # A block on its line keeps its x+y and ends on its fixed curve.
    for i, side, block in zip((0, 2), limit_branch(p), (p, mirror_params(p))):
        if side == 0:
            assert x[i] + y[i] == pytest.approx(state.female[i] + state.male[i], rel=0, abs=1e-15)
            assert y[i] == pytest.approx(fixed_curve(block)(x[i]), rel=0, abs=1e-15)
    assert max(abs(n - o) for n, o in zip(p.step(limit.coords()), limit.coords())) <= 1e-15
    run = dynamics.iterate_map(p.step, state.coords(), Tolerance(iter_eps=1e-15))
    assert max(abs(u - v) for u, v in zip(run.states[-1], limit.coords())) <= 1e-12
    assert survivor_label(p) == label


def test_predict_limit_rejects_fixed_state():
    p = params(a=0.3, c=0.3)
    corner = make_state([0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(FixedPointInputError):
        predict_limit(p, corner)


def test_predict_limit_checks_slice_sums():
    p = params(a=0.3, c=0.3, a0=0.4, c0=0.4)
    with pytest.raises(ValueError):
        predict_limit(p, _interior_state(0.5, 0.5))


def test_iterated_limits_match_prediction():
    rng = np.random.default_rng(14)
    for _ in range(20):
        while True:
            a, b, c, d = rng.uniform(0.05, 0.95, 4)
            if abs(a + c - 1) > 0.05 and abs(b + d - 1) > 0.05:
                break
        a0, c0 = rng.uniform(0.2, 0.8, 2)
        p = params(a=float(a), b=float(b), c=float(c), d=float(d), a0=float(a0), c0=float(c0))
        state = _interior_state(p.a0, p.c0)
        predicted = predict_limit(p, state)
        run = dynamics.iterate_map(p.step, state.coords())
        assert max(abs(u - v) for u, v in zip(run.states[-1], predicted.coords())) <= 1e-6


# -- critical line: conservation and empirical limits -------------------------


def test_sum_conserved_on_critical_line():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    run = dynamics.iterate_map(p.sub12_step, (0.3, 0.1))
    # Unthinned, so the drift below covers every step.
    assert len(run.states) < dynamics.TRAJECTORY_STORE_CAP
    assert dynamics.conserved_quantity_drift(run, lambda s: s[0] + s[1]) <= 1e-12


def test_critical_trajectories_land_on_fixed_curve():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    curve = fixed_curve(p)
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = (float(rng.uniform(0.02, 0.48)), float(rng.uniform(0.02, 0.48)))
        run = dynamics.iterate_map(p.sub12_step, s)
        x_end, y_end = run.states[-1]
        assert abs(y_end - curve(x_end)) <= 1e-6


# -- critical section map ----------------------------------------------------


def test_critical_step_affine_case():
    cp = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    # quadratic term vanishes: x' = (1 - (a0+c0)/2) x + a0/2
    for x in (0.0, 0.3, 1.0):
        assert critical_step(cp, x) == pytest.approx(0.5 * x + 0.2)


def test_critical_step_endpoint_values():
    cp = CriticalMapParams(a=0.7, a0=0.35, c0=0.8)
    assert critical_step(cp, 0.0) == pytest.approx(cp.a * cp.a0)
    assert critical_step(cp, 1.0) == pytest.approx(1.0 - cp.c0 * (1.0 - cp.a))


def test_critical_step_quadratic_example():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    # x' = 0.5 x^2 + 0.375
    assert critical_step(cp, 0.0) == pytest.approx(0.375)
    assert critical_step(cp, 0.5) == pytest.approx(0.5)
    assert critical_step(cp, 1.0) == pytest.approx(0.875)


def test_critical_step_maps_interval_to_itself():
    rng = np.random.default_rng(16)
    xs = np.linspace(0.0, 1.0, 1001)
    for _ in range(100):
        cp = CriticalMapParams(
            a=float(rng.uniform(0.02, 0.98)),
            a0=float(rng.uniform(0.02, 0.98)),
            c0=float(rng.uniform(0.02, 0.98)),
        )
        values = critical_step(cp, xs)
        assert values.min() >= -1e-15
        assert values.max() <= 1.0 + 1e-15


def test_critical_fixed_point_affine():
    fixed = critical_fixed_points(CriticalMapParams(a=0.5, a0=0.4, c0=0.6))
    assert fixed.point == pytest.approx(0.4)
    assert fixed.spurious is None


def test_critical_fixed_point_quadratic():
    fixed = critical_fixed_points(CriticalMapParams(a=0.75, a0=0.5, c0=0.5))
    assert fixed.point == pytest.approx(0.5, abs=1e-12)
    assert fixed.spurious == pytest.approx(1.5, abs=1e-12)
    assert fixed.discriminant == pytest.approx(0.25, abs=1e-12)


def test_root_ordering():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = float(rng.uniform(0.02, 0.98))
        if abs(a - 0.5) < 1e-3:
            continue
        cp = CriticalMapParams(a=a, a0=float(rng.uniform(0.02, 0.98)), c0=float(rng.uniform(0.02, 0.98)))
        fixed = critical_fixed_points(cp)
        assert 0.0 < fixed.point < 1.0
        if a > 0.5:
            assert fixed.spurious > 1.0
        else:
            assert fixed.spurious < 0.0
        # closed-form root really is fixed
        assert critical_step(cp, fixed.point) == pytest.approx(fixed.point, abs=1e-12)


def test_critical_slope_quadratic_case():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    assert critical_slope(cp) == pytest.approx(0.5, abs=1e-12)
    fixed = critical_fixed_points(cp)
    assert critical_slope(cp) == pytest.approx(1.0 - np.sqrt(fixed.discriminant), abs=1e-12)


def test_critical_slope_affine_case():
    # the affine map has constant slope 1 - (a0+c0)/2
    cp = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    assert critical_slope(cp) == pytest.approx(0.5, abs=1e-15)
    h = 1e-6
    t = critical_fixed_points(cp).point
    numeric = (critical_step(cp, t + h) - critical_step(cp, t - h)) / (2 * h)
    assert critical_slope(cp) == pytest.approx(numeric, abs=1e-9)


def test_critical_slope_is_contracting():
    rng = np.random.default_rng(18)
    for _ in range(300):
        cp = CriticalMapParams(
            a=float(rng.uniform(0.02, 0.98)),
            a0=float(rng.uniform(0.02, 0.98)),
            c0=float(rng.uniform(0.02, 0.98)),
        )
        assert abs(critical_slope(cp)) < 1.0


def test_scan_finds_no_low_period_points():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    for period in (2, 3):
        assert scan_periodic_points(lambda x: critical_step(cp, x), period, grid=100_000) == []


def test_scan_sanity_on_logistic_map():
    cycle = scan_periodic_points(lambda x: 4.0 * x * (1.0 - x), 2, grid=100_000)
    assert len(cycle) == 2
    assert cycle == pytest.approx([(5 - np.sqrt(5)) / 8, (5 + np.sqrt(5)) / 8], abs=1e-8)


def test_predict_limit_critical():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    assert predict_limit_critical(cp, 0.1) == pytest.approx(0.5)
    affine = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    assert predict_limit_critical(affine, 0.9) == pytest.approx(0.4)
    with pytest.raises(FixedPointInputError):
        predict_limit_critical(cp, 0.5)


def test_critical_iteration_reaches_predicted_limit():
    rng = np.random.default_rng(19)
    for _ in range(30):
        cp = CriticalMapParams(
            a=float(rng.uniform(0.05, 0.95)),
            a0=float(rng.uniform(0.05, 0.95)),
            c0=float(rng.uniform(0.05, 0.95)),
        )
        x0 = float(rng.uniform(0.0, 1.0))
        if dynamics.is_fixed(cp.step, (x0,), Tolerance()):
            continue
        run = dynamics.iterate_map(cp.step, (x0,))
        assert abs(run.states[-1][0] - predict_limit_critical(cp, x0)) <= 1e-6
