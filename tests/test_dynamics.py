"""Engine behavior: iteration, Jacobians, root location, fixed-point search.

Core claims:
  - operator application matches the closed-form case maps and fixes the
    states it should fix
  - iteration detects convergence from successive distance, thins storage,
    and reports fixed starting points as zero steps
  - the analytic Jacobian equals central finite differences of the
    quadratic form
  - planar classification agrees with directly computed eigenvalues
  - grid search finds exactly the isolated fixed points, and only points
    of the fixed set when that set is a continuum
"""

import numpy as np
import pytest

from qsobp import four_types, two_types
from qsobp.dynamics import (
    TRAJECTORY_STORE_CAP,
    StabilityKind,
    classify_fixed_point_2d,
    conserved_quantity_drift,
    find_fixed_points_grid,
    iterate,
    iterate_map,
)
from qsobp.errors import NotNormalizedError
from qsobp.simplex import Tolerance, make_state
from qsobp.two_types import TwoTypeParams, lift_operator

from helpers import jacobian, random_state, state_distance, uniform_weights


def identity_operator():
    from qsobp.construction import ConfigurationSpace, build_operator, make_graph

    space = ConfigurationSpace.build(make_graph(2, [(1, 2)]), 2, [0, 1])
    return build_operator(space, uniform_weights(space))


# -- apply -------------------------------------------------------------------


def test_identity_operator_fixes_everything():
    op = identity_operator()
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_state(rng, 2, 2)
        assert state_distance(op.apply(s), s) == 0.0


def test_two_type_apply_value():
    op = lift_operator(TwoTypeParams(a=2.0 / 3.0, b=0.5))
    s = make_state([0.5, 0.5], [0.5, 0.5])
    out = op.apply(s)
    # x1' = x1 + a x2 y1 = 1/2 + (2/3)(1/4) = 2/3
    assert out.female[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_two_type_apply_fixes_male_vertex_states():
    op = lift_operator(TwoTypeParams(a=0.3, b=0.8))
    for x in (0.0, 0.25, 0.5, 0.99):
        s = make_state([x, 1.0 - x], [0.0, 1.0])
        assert state_distance(op.apply(s), s) == 0.0


# -- iterate -----------------------------------------------------------------


def test_iterate_fixed_start_reports_zero_steps():
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    s = make_state([0.3, 0.7], [0.0, 1.0])
    run = iterate(op, s)
    assert run.converged
    assert run.steps_taken == 0
    assert run.limit == s.coords()


def test_iterate_two_type_example():
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    run = iterate(op, make_state([0.2, 0.8], [0.25, 0.75]))
    assert run.converged
    assert np.abs(np.subtract(run.limit, (0.4, 0.6, 0.0, 1.0))).max() <= 1e-6


def test_iterate_records_the_operator_step_of_iterate_map():
    # The operator run is the coordinate-map run of its step, female block first.
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    s = make_state([0.2, 0.8], [0.25, 0.75])
    run = iterate(op, s)

    def step(c):
        return np.concatenate(op.apply_raw(c[:2, 0], c[2:, 0]))[:, None]

    mapped = iterate_map(step, s.coords())
    assert type(run) is type(mapped)
    assert np.array_equal(run.states, mapped.states)
    assert run.states.shape == (len(run.state_steps), 4)
    assert (run.state_steps, run.converged, run.steps_taken, run.limit) == (
        mapped.state_steps, mapped.converged, mapped.steps_taken, mapped.limit
    )
    assert type(run.converged) is bool and type(run.steps_taken) is int


def test_iterate_rejects_a_state_that_leaves_the_simplex(monkeypatch):
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    monkeypatch.setattr(type(op), "apply_raw", lambda self, x, y: (x * 0.5, y))
    with pytest.raises(NotNormalizedError):
        iterate(op, make_state([0.2, 0.8], [0.25, 0.75]))


def test_iterate_four_type_interior_start():
    p = four_types.FourTypeParams(a=0.3, b=0.3, c=0.3, d=0.3, a0=0.5, c0=0.5)
    run = iterate_map(p.step, (0.2, 0.3, 0.3, 0.2, 0.1, 0.4, 0.2, 0.3))
    assert run.converged
    # types 1 and 3 die out in both sexes
    for idx in (0, 2, 4, 6):
        assert abs(run.limit[idx]) <= 1e-6


def test_iterate_map_thins_storage():
    # A rigid irrational rotation never converges; storage must stay capped
    # while first and last states are retained.
    angle = 2.0 * np.pi * 0.03137

    def rotate(s):
        x, y = s
        return (
            x * np.cos(angle) - y * np.sin(angle),
            x * np.sin(angle) + y * np.cos(angle),
        )

    run = iterate_map(rotate, (1.0, 0.0), Tolerance(max_iters=50_000))
    assert not run.converged
    assert run.limit is None
    assert run.steps_taken == 50_000
    assert len(run.states) <= 10_001
    assert run.state_steps[0] == 0
    assert run.state_steps[-1] == 50_000


def test_iterate_map_tracks_functional_drift():
    # Drift of a conserved functional is read off the stored trajectory;
    # the run is unthinned, so that covers every step.
    p = TwoTypeParams(a=0.4, b=0.5)
    run = iterate_map(p.step, (0.2, 0.25))
    assert run.converged
    assert len(run.states) < TRAJECTORY_STORE_CAP
    drift = conserved_quantity_drift(run, lambda s: two_types.invariant_line_level(p, s))
    assert drift <= 1e-12


# -- jacobian ----------------------------------------------------------------


def test_jacobian_of_identity_operator():
    # The full quadratic form of a breed-true operator is (x, y) ->
    # (x * sum(y), y * sum(x)), so its ambient Jacobian carries rank-one
    # off-diagonal blocks; restricted to simplex tangent vectors
    # (zero-sum perturbations) it acts as the identity.
    op = identity_operator()
    rng = np.random.default_rng(1)
    s = random_state(rng, 2, 2)
    x = np.array(s.female.probs)
    y = np.array(s.male.probs)
    expected = np.block(
        [
            [np.eye(2), np.outer(x, np.ones(2))],
            [np.outer(y, np.ones(2)), np.eye(2)],
        ]
    )
    j = jacobian(op, s)
    np.testing.assert_allclose(j, expected, atol=1e-15)
    for _ in range(10):
        dx = rng.normal(size=2)
        dy = rng.normal(size=2)
        tangent = np.concatenate([dx - dx.mean(), dy - dy.mean()])
        np.testing.assert_allclose(j @ tangent, tangent, atol=1e-12)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(2, 5))
        pf = rng.dirichlet(np.ones(n), size=(n, nu))
        pm = rng.dirichlet(np.ones(nu), size=(n, nu))
        from qsobp.construction import BisexualOperator

        op = BisexualOperator.from_tensors(pf, pm)
        s = random_state(rng, n, nu)
        analytic = jacobian(op, s)
        coords = np.array(s.coords())
        numeric = np.empty((n + nu, n + nu))
        for col in range(n + nu):
            hi, lo = coords.copy(), coords.copy()
            hi[col] += h
            lo[col] -= h
            f_hi = np.concatenate(op.quadratic_form(hi[:n], hi[n:]))
            f_lo = np.concatenate(op.quadratic_form(lo[:n], lo[n:]))
            numeric[:, col] = (f_hi - f_lo) / (2.0 * h)
        assert np.abs(analytic - numeric).max() <= 1e-6


# -- planar classification ---------------------------------------------------


def test_classify_fixed_point_2d_kinds():
    tol = Tolerance()
    assert classify_fixed_point_2d([[0.5, 0.1], [0.0, 0.3]], tol).kind is StabilityKind.ATTRACTING
    assert classify_fixed_point_2d([[2.0, 0.0], [0.0, 0.5]], tol).kind is StabilityKind.SADDLE
    assert classify_fixed_point_2d([[2.0, 0.0], [0.0, 3.0]], tol).kind is StabilityKind.REPELLING
    verdict = classify_fixed_point_2d([[1.0, 0.0], [0.0, 0.5]], tol)
    assert verdict.kind is StabilityKind.NON_HYPERBOLIC
    assert verdict.eigen_moduli == (1.0, 0.5)


def test_classify_fixed_point_2d_unit_circle_cases():
    tol = Tolerance()
    angle = 0.7
    rotation = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    # a root at one with its partner outside; a conjugate pair on the
    # circle; double roots at -1 and at +1
    for matrix in ([[1.0, 0.0], [0.0, 2.0]], rotation, [[-1.0, 0.0], [0.0, -1.0]], np.eye(2)):
        verdict = classify_fixed_point_2d(matrix, tol)
        assert verdict.kind is StabilityKind.NON_HYPERBOLIC
        assert min(abs(m - 1.0) for m in verdict.eigen_moduli) <= 1e-12
    assert classify_fixed_point_2d([[1.0, 0.0], [0.0, 2.0]], tol).eigen_moduli == (2.0, 1.0)


def test_classify_fixed_point_2d_agrees_with_eigvals():
    rng = np.random.default_rng(99)
    tol = Tolerance()
    expected_kind = {2: StabilityKind.ATTRACTING, 1: StabilityKind.SADDLE, 0: StabilityKind.REPELLING}
    seen = set()
    checked = 0
    while checked < 2000:
        m = rng.uniform(-2.0, 2.0, (2, 2))
        moduli = sorted(np.abs(np.linalg.eigvals(m)), reverse=True)
        if any(abs(mod - 1.0) < 1e-6 for mod in moduli):
            continue  # stay away from the unit circle, where rounding decides
        verdict = classify_fixed_point_2d(m, tol)
        np.testing.assert_allclose(verdict.eigen_moduli, moduli, atol=1e-7)
        assert verdict.kind is expected_kind[sum(mod < 1.0 for mod in moduli)], m
        seen.add(verdict.kind)
        checked += 1
    assert seen == set(expected_kind.values())


def test_two_type_boundary_points_are_non_hyperbolic():
    p = TwoTypeParams(a=0.6, b=0.4)
    for point in ((0.2, 0.0), (0.7, 0.0), (1.0, 0.3), (1.0, 0.0)):
        verdict = classify_fixed_point_2d(two_types.jacobian_matrix(p, point))
        assert verdict.kind is StabilityKind.NON_HYPERBOLIC


# -- grid fixed-point search -------------------------------------------------


def test_grid_finds_isolated_four_type_points():
    p = four_types.FourTypeParams(a=0.3, b=0.3, c=0.3, d=0.3, a0=0.5, c0=0.5)
    points = find_fixed_points_grid(
        p.sub12_step, lambda s: four_types.sub12_jacobian(p, s), (0.5, 0.5), grid=7
    )
    assert len(points) == 2
    np.testing.assert_allclose(points[0], (0.0, 0.0), atol=1e-8)
    np.testing.assert_allclose(points[1], (0.5, 0.5), atol=1e-8)


def test_grid_on_critical_line_lands_on_fixed_curve():
    p = four_types.FourTypeParams(a=0.4, b=0.3, c=0.6, d=0.3, a0=0.5, c0=0.5)
    curve = four_types.fixed_curve(p)
    points = find_fixed_points_grid(
        p.sub12_step, lambda s: four_types.sub12_jacobian(p, s), (0.5, 0.5), grid=8
    )
    assert len(points) >= 8
    for x, y in points:
        assert abs(y - curve(x)) <= 1e-7


def test_grid_on_two_type_map_stays_in_fixed_segments():
    # Near the corner (1,0) the residual vanishes quadratically with the
    # distance to the fixed set, so a tight residual bound is needed for a
    # 1e-6 set-distance guarantee.
    p = TwoTypeParams(a=0.45, b=0.55)
    points = find_fixed_points_grid(
        p.step,
        lambda s: two_types.jacobian_matrix(p, s),
        (1.0, 1.0),
        grid=6,
        tol=Tolerance(abs_eps=1e-12),
    )
    assert points
    for x, y in points:
        assert min(abs(y), abs(x - 1.0)) <= 1e-6


# -- conserved quantities ----------------------------------------------------


def test_constant_functional_has_zero_drift():
    p = TwoTypeParams(a=0.4, b=0.5)
    run = iterate_map(p.step, (0.2, 0.25))
    assert conserved_quantity_drift(run, lambda s: 1.0) == 0.0


def test_invariant_level_drift_is_tiny():
    p = TwoTypeParams(a=0.4, b=0.5)
    run = iterate_map(p.step, (0.2, 0.25))
    drift = conserved_quantity_drift(run, lambda s: two_types.invariant_line_level(p, s))
    assert drift <= 1e-12


def test_pair_sum_drift_is_tiny():
    p = four_types.FourTypeParams(a=0.7, b=0.2, c=0.6, d=0.4, a0=0.4, c0=0.6)
    run = iterate_map(p.step, (0.1, 0.3, 0.25, 0.35, 0.3, 0.3, 0.15, 0.25))
    drift = conserved_quantity_drift(run, lambda s: s[0] + s[1])
    assert drift <= 1e-12
