"""Engine behavior: iteration, Jacobians, root location, fixed-point search.

Core claims:
  - operator application matches the closed-form case maps and fixes the
    states it should fix
  - iteration detects convergence from successive distance, thins storage,
    and reports fixed starting points as zero steps
  - the analytic Jacobian equals central finite differences of the
    quadratic form
  - classify's eigenvalue moduli at the planar maps' fixed points agree with
    the trace/determinant roots, and every two-type fixed point is
    non-hyperbolic
  - grid search finds exactly the isolated fixed points, and only points
    of the fixed set when that set is a continuum
"""

import numpy as np
import pytest

from qsobp import cli, four_types
from qsobp.cli import CASES
from qsobp.dynamics import (
    TRAJECTORY_STORE_CAP,
    find_fixed_points_grid,
    iterate,
    iterate_batch,
    iterate_map,
)
from qsobp.errors import DimensionMismatchError, NegativeEntryError, NotNormalizedError
from qsobp.simplex import Tolerance, make_state
from qsobp.two_types import TwoTypeParams, lift_operator

from helpers import (
    apply,
    conserved_quantity_drift,
    invariant_line_level,
    jacobian,
    quadratic_form,
    random_state,
    state_distance,
    trace_determinant_moduli,
    uniform_weights,
)


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
        assert state_distance(apply(op, s), s) == 0.0


def test_two_type_apply_value():
    op = lift_operator(TwoTypeParams(a=2.0 / 3.0, b=0.5))
    s = make_state([0.5, 0.5], [0.5, 0.5])
    out = apply(op, s)
    # x1' = x1 + a x2 y1 = 1/2 + (2/3)(1/4) = 2/3
    assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_two_type_apply_fixes_male_vertex_states():
    op = lift_operator(TwoTypeParams(a=0.3, b=0.8))
    for x in (0.0, 0.25, 0.5, 0.99):
        s = make_state([x, 1.0 - x], [0.0, 1.0])
        assert state_distance(apply(op, s), s) == 0.0


# -- iterate -----------------------------------------------------------------


def test_iterate_fixed_start_reports_zero_steps():
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    run = iterate(op, [0.3, 0.7], [0.0, 1.0])
    assert run.converged
    assert run.steps_taken == 0
    assert run.limit == (0.3, 0.7, 0.0, 1.0)


def test_iterate_two_type_example():
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    run = iterate(op, [0.2, 0.8], [0.25, 0.75])
    assert run.converged
    assert np.abs(np.subtract(run.limit, (0.4, 0.6, 0.0, 1.0))).max() <= 1e-6


def test_iterate_records_the_operator_step_of_iterate_map():
    # The operator run is the coordinate-map run of its step, female block
    # first; the step gives the same bits on a (d,) vector as on the (d, 1)
    # column that the engine passes.
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    run = iterate(op, [0.2, 0.8], [0.25, 0.75])

    def step(c):
        return op.apply_raw(c[:, 0])[:, None]

    mapped = iterate_map(step, (0.2, 0.8, 0.25, 0.75))
    assert type(run) is type(mapped)
    assert np.array_equal(run.states, mapped.states)
    assert run.states.shape == (len(run.state_steps), 4)
    assert (run.state_steps, run.converged, run.steps_taken, run.limit) == (
        mapped.state_steps, mapped.converged, mapped.steps_taken, mapped.limit
    )
    assert type(run.converged) is bool and type(run.steps_taken) is int


def test_iterate_rejects_a_start_split_unlike_the_operator():
    # Both blocks lie on their simplexes and the length 2 + 2 is the
    # operator's 1 + 3; only the (n, nu) split differs.
    from qsobp.construction import ConfigurationSpace, build_operator, make_graph

    space = ConfigurationSpace.build(make_graph(2, []), 2, [0])
    op = build_operator(space, uniform_weights(space))
    assert (op.n, op.nu) == (1, 3)
    with pytest.raises(DimensionMismatchError, match=r"state dims \(2, 2\), operator \(1,3\)"):
        iterate(op, [0.5, 0.5], [0.5, 0.5])


def test_iterate_rejects_a_state_that_leaves_the_simplex(monkeypatch):
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    monkeypatch.setattr(type(op), "apply_raw", lambda self, s: s * [[0.5], [0.5], [1.0], [1.0]])
    with pytest.raises(NotNormalizedError):
        iterate(op, [0.2, 0.8], [0.25, 0.75])


@pytest.mark.parametrize(
    "shift, error", [((0.0, 1e-8), NotNormalizedError), ((-0.31, 0.31), NegativeEntryError)]
)
def test_iterate_rejects_one_stored_state_off_the_simplex(monkeypatch, shift, error):
    # Of the stored states only the male block of step 2 leaves the simplex;
    # step 3 returns to step 1, which step 4 repeats.
    op = lift_operator(TwoTypeParams(a=0.4, b=0.5))
    s = np.array([[0.2], [0.8], [0.3], [0.7]])
    script = iter([s, s + np.array([0.0, 0.0, *shift])[:, None]])
    monkeypatch.setattr(type(op), "apply_raw", lambda self, _: next(script, s))
    with pytest.raises(error):
        iterate(op, [0.2, 0.8], [0.25, 0.75])


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


def test_an_empty_start_is_a_dimension_error_and_an_empty_batch_a_result():
    def step(*_):
        raise AssertionError("an empty start was stepped")

    with pytest.raises(DimensionMismatchError, match="at least one coordinate"):
        iterate_map(step, [])
    with pytest.raises(DimensionMismatchError, match="at least one coordinate"):
        iterate_batch(step, np.zeros((0, 3)))
    # A batch of no columns returns no rows, with and without histories.
    for store_cap in (None, 5):
        run = iterate_batch(step, np.zeros((3, 0)), store_cap=store_cap)
        assert run.end.shape == (3, 0) and run.steps_taken.size == run.converged.size == 0
        assert run.trajectories == (None if store_cap is None else ())


def test_iterate_map_tracks_functional_drift():
    # Drift of a conserved functional is read off the stored trajectory;
    # the run is unthinned, so that covers every step.
    p = TwoTypeParams(a=0.4, b=0.5)
    run = iterate_map(p.step, (0.2, 0.25))
    assert run.converged
    assert len(run.states) < TRAJECTORY_STORE_CAP
    drift = conserved_quantity_drift(run, lambda s: invariant_line_level(p, s))
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
    x, y = s[:2], s[2:]
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
        numeric = np.empty((n + nu, n + nu))
        for col in range(n + nu):
            hi, lo = s.copy(), s.copy()
            hi[col] += h
            lo[col] -= h
            numeric[:, col] = (quadratic_form(op, hi) - quadratic_form(op, lo)) / (2.0 * h)
        assert np.abs(analytic - numeric).max() <= 1e-6


# -- planar classification ---------------------------------------------------


def test_classify_fixed_point_matches_the_trace_determinant_roots_on_the_planar_jacobians():
    # classify's moduli at fixed points of random two-type maps (the segments) and
    # four-type type-1/2 blocks (corners, and the curve on a + c = 1).  Points whose two
    # moduli lie within 1e-2 of each other are left out: there the reference loses
    # digits, 1.4e-13 at 1e-3.
    rng = np.random.default_rng(2025)
    checked = 0
    for _ in range(500):
        a, b, c, d, a0, c0 = rng.uniform(0.01, 0.99, 6).tolist()
        two = TwoTypeParams(a, b).blocks[0][0]
        p = four_types.FourTypeParams(a, b, 1.0 - a if rng.uniform() < 0.5 else c, d, a0, c0)
        four = p.blocks[0][0]
        cells = [(two, pt) for pt in ((rng.uniform(), 0.0), (1.0, rng.uniform()))]
        cells += [(four, pt) for pt in four_types.fixed_points(four)]
        for block, point in cells:
            reference = trace_determinant_moduli(four_types.pair_jacobian(*block, *point))
            if reference[0] - reference[1] < 1e-2:
                continue
            moduli = cli._kind_doc(block, point)["eigen_moduli"]
            assert np.abs(np.subtract(moduli, reference)).max() <= 1e-13
            checked += 1
    assert checked > 3_000


def test_two_type_boundary_points_are_non_hyperbolic():
    block = TwoTypeParams(a=0.6, b=0.4).blocks[0][0]
    for point in ((0.2, 0.0), (0.7, 0.0), (1.0, 0.3), (1.0, 0.0)):
        assert four_types.fixed_kind(block, point) == "non_hyperbolic"


# -- grid fixed-point search -------------------------------------------------


def test_grid_finds_isolated_four_type_points():
    p = four_types.FourTypeParams(a=0.3, b=0.3, c=0.3, d=0.3, a0=0.5, c0=0.5)
    points = find_fixed_points_grid(*CASES["four-type"].planar(p), grid=7)
    assert len(points) == 2
    np.testing.assert_allclose(points[0], (0.0, 0.0), atol=1e-8)
    np.testing.assert_allclose(points[1], (0.5, 0.5), atol=1e-8)


def test_grid_on_critical_line_lands_on_fixed_curve():
    p = four_types.FourTypeParams(a=0.4, b=0.3, c=0.6, d=0.3, a0=0.5, c0=0.5)
    points = find_fixed_points_grid(*CASES["four-type"].planar(p), grid=8)
    assert len(points) >= 8
    for x, y in points:
        assert abs(y - four_types.fixed_points(p.blocks[0][0], x)[0][1]) <= 1e-7


def test_grid_on_two_type_map_stays_in_fixed_segments():
    # Near the corner (1,0) the residual vanishes quadratically with the
    # distance to the fixed set, so a tight residual bound is needed for a
    # 1e-6 set-distance guarantee.
    p = TwoTypeParams(a=0.45, b=0.55)
    points = find_fixed_points_grid(
        *CASES["two-type"].planar(p),
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
    drift = conserved_quantity_drift(run, lambda s: invariant_line_level(p, s))
    assert drift <= 1e-12


def test_pair_sum_drift_is_tiny():
    p = four_types.FourTypeParams(a=0.7, b=0.2, c=0.6, d=0.4, a0=0.4, c0=0.6)
    run = iterate_map(p.step, (0.1, 0.3, 0.25, 0.35, 0.3, 0.3, 0.15, 0.25))
    drift = conserved_quantity_drift(run, lambda s: s[0] + s[1])
    assert drift <= 1e-12
