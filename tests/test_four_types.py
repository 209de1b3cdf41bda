"""Four-type case: slice invariance, decoupled blocks, limits, critical map.

Core claims:
  - the full step conserves all four pairwise sums and fixes the predicted
    corner states
  - the lifted tensors are the literal tables of the four mixed pairings,
    byte for byte, also over drawn parameters and through ``construct`` on the
    lift's construction document
  - the type-1/2 block trajectory equals the (x1, y1) coordinates of the
    full trajectory, and the type-3/4 block is its parameter-swapped twin
  - off the critical line the fixed points and their stability follow the
    sign of a+c-1, and iterated limits match the four-branch prediction
  - on the critical line x+y is conserved, the fixed set is the stated
    curve, the predicted limit is the curve's point on the start's line x+y,
    also inside the band |1-a-c| <= CRITICAL_EPS,
    and the one-dimensional section map has one attracting fixed point,
    correct slope, and no low-period cycles
  - on the face u = 0 (the two-type block) the sampled fixed points are the
    edge y = 0, each fixed, and so is the edge x = a0
  - the block record names each of the eight types once, ``block_state`` of
    the blocks' limits is the hand-written completion bit for bit, and every
    sampled verify start puts each block's pair totals on its box
"""

import json
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsobp import dynamics
from qsobp.cli import CASES, main
from qsobp.construction import load_json, operator_from_json
from qsobp.errors import FixedPointInputError
from qsobp.four_types import (
    CRITICAL_EPS,
    CriticalMapParams,
    FourTypeParams,
    block_state,
    critical_fixed_points,
    critical_slope,
    construction_doc,
    fixed_kind,
    fixed_points,
    lift_operator,
    pair_limit,
    pair_side,
    predict_limit,
    predict_limit_critical,
    slice_sums,
)
from qsobp.simplex import Tolerance, make_state
from qsobp.two_types import TwoTypeParams

from helpers import (
    apply,
    conserved_quantity_drift,
    mirror_params,
    predict_one,
    scan_periodic_points,
    stack_params,
    state_distance,
    sub34_step,
    survivor_label,
)


def params(a=0.3, b=0.3, c=0.3, d=0.3, a0=0.5, c0=0.5) -> FourTypeParams:
    return FourTypeParams(a=a, b=b, c=c, d=d, a0=a0, c0=c0)


# -- full step ---------------------------------------------------------------


def test_corner_state_is_fixed():
    p = params()
    s = make_state([0.0, p.a0, 0.0, 1.0 - p.a0], [0.0, p.c0, 0.0, 1.0 - p.c0])
    assert p.step(s) == tuple(s)


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
    out = p.step(s)
    assert slice_sums(make_state(out[:4], out[4:])) == pytest.approx(sums, abs=1e-15)


def test_full_step_agrees_with_lifted_tensors():
    rng = np.random.default_rng(12)
    p = params(a=0.35, b=0.65, c=0.52, d=0.18)
    op = lift_operator(p)
    for _ in range(50):
        s = make_state(rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4)))
        assert max(abs(u - v) for u, v in zip(p.step(s), apply(op, s))) <= 1e-15


def literal_tables(a, b, c, d):
    """pf and pm of the four-type operator, written out: pf[i, k] and pm[i, k] are the
    daughter and the son rows of mother i and father k."""
    pf = np.array([
        [[1.0, 0.0, 0.0, 0.0], [a, 1.0 - a, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        [[a, 1.0 - a, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, b, 1.0 - b]],
        [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, b, 1.0 - b], [0.0, 0.0, 0.0, 1.0]],
    ])
    pm = np.array([
        [[1.0, 0.0, 0.0, 0.0], [c, 1.0 - c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        [[c, 1.0 - c, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, d, 1.0 - d]],
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, d, 1.0 - d], [0.0, 0.0, 0.0, 1.0]],
    ])
    return pf, pm


@pytest.mark.parametrize(
    "a, b, c, d",
    [(0.35, 0.65, 0.52, 0.18), (0.3, 0.3, 0.3, 0.3), (0.7, 0.3, 0.7, 0.2), (0.1, 0.9, 0.9, 0.1)],
)
def test_lift_tensors_are_the_literal_tables(a, b, c, d):
    pf, pm = literal_tables(a, b, c, d)
    tensors = lift_operator(params(a=a, b=b, c=c, d=d)).tensors
    for built, table in ((tensors.pf, pf), (tensors.pm, pm)):
        assert built.dtype == table.dtype and built.shape == table.shape
        assert built.tobytes() == table.tobytes()


# Parameters in (0, 1) from the smallest normal float up; FourTypeParams refuses subnormals.
OPEN_UNIT = st.floats(sys.float_info.min, 1.0, exclude_max=True)
NEAR_ONE = 1.0 - 2.0**-53  # the largest float below 1


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.tuples(OPEN_UNIT, OPEN_UNIT, OPEN_UNIT, OPEN_UNIT))
@example((1e-12, 1.0 - 1e-12, 5e-13, NEAR_ONE))
@example((1.0 - 1e-12, 1e-12, NEAR_ONE, 5e-13))
@example((sys.float_info.min,) * 4)
@example((sys.float_info.min, NEAR_ONE, 1e-12, 1.0 - 1e-12))
def test_the_construction_and_its_document_give_the_literal_tables(abcd):
    # The lift is the construction's, and ``construct`` on the lift's document writes an
    # operator document with the same tensor bytes.
    tables = literal_tables(*abcd)
    p = params(*abcd)
    lifted = lift_operator(p).tensors
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "op.json")
        with open(doc, "w", encoding="utf-8") as fh:
            json.dump(construction_doc(p), fh)
        assert main(["construct", "--input", doc, "--output", out]) == 0
        loaded = operator_from_json(load_json(out)).tensors
    for tensors in (lifted, loaded):
        for built, table in zip((tensors.pf, tensors.pm), tables):
            assert built.dtype == table.dtype and built.shape == table.shape
            assert built.tobytes() == table.tobytes()


# -- the block record --------------------------------------------------------

RECORD = settings(max_examples=200, derandomize=True, database=None, deadline=None)
PARAMS = st.builds(FourTypeParams, *(OPEN_UNIT,) * 6)


@RECORD
@given(PARAMS)
def test_the_block_record_names_each_type_once(p):
    # (f1, f2, m1, m2): two female types among x1..x4, then two male types among y1..y4.
    at = [types for _, types in p.blocks]
    assert sorted(i for types in at for i in types) == list(range(8))
    assert all(f < 4 <= m for f1, f2, m1, m2 in at for f in (f1, f2) for m in (m1, m2))


@RECORD
@given(PARAMS, st.tuples(*(st.floats(0.0, 1.0),) * 4))
def test_block_state_of_the_limits_is_the_written_out_completion(p, fractions):
    fx12, fy12, fx34, fy34 = fractions
    blocks = p.blocks
    points = [pair_limit(*block, fx * block.a0, fy * block.c0)
              for (block, _), fx, fy in zip(blocks, (fx12, fx34), (fy12, fy34))]
    (x1, y1), (x3, y3) = points
    a0, c0 = p.a0, p.c0
    written = (x1, a0 - x1, x3, 1.0 - a0 - x3, y1, c0 - y1, y3, 1.0 - c0 - y3)
    assert np.array(block_state(blocks, points, 8)).tobytes() == np.array(written).tobytes()


@RECORD
@given(st.lists(st.tuples(*(OPEN_UNIT,) * 6), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_each_sampled_start_puts_each_block_on_its_box(rows, seed):
    p = stack_params([FourTypeParams(*row) for row in rows])
    starts = CASES["four-type"].sample(p, np.random.default_rng(seed))
    assert starts.shape == (len(rows), 8)
    for block, (f1, f2, m1, m2) in p.blocks:
        for first, second, side in ((f1, f2, block.a0), (m1, m2, block.c0)):
            assert np.all(np.abs(starts[:, first] + starts[:, second] - side) <= np.spacing(side))


# -- decoupled blocks --------------------------------------------------------


def test_sub12_corners_are_fixed():
    p = params()
    assert p.blocks[0][0].step((0.0, 0.0)) == (0.0, 0.0)
    assert p.blocks[0][0].step((p.a0, p.c0)) == (p.a0, p.c0)


def test_sub12_step_value():
    p = params(a=0.3, c=0.3, a0=0.5, c0=0.5)
    x, y = p.blocks[0][0].step((0.25, 0.25))
    assert x == pytest.approx(0.225)
    assert y == pytest.approx(0.225)


def test_sub12_stays_in_box():
    rng = np.random.default_rng(13)
    p = params(a=0.9, c=0.85, a0=0.3, c0=0.6)
    for _ in range(200):
        x = float(rng.uniform(0, p.a0))
        y = float(rng.uniform(0, p.c0))
        nx, ny = p.blocks[0][0].step((x, y))
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
    assert sub34_step(p, (0.2, 0.1)) == q.blocks[0][0].step((0.2, 0.1))


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
        block = p.blocks[0][0].step(block)
        assert abs(full[0] - block[0]) <= 1e-13
        assert abs(full[4] - block[1]) <= 1e-13


# -- fixed points and stability ----------------------------------------------


def test_isolated_fixed_points_off_critical_line():
    assert fixed_points(params(a=0.3, c=0.3).blocks[0][0]) == ((0.0, 0.0), (0.5, 0.5))


def test_fixed_curve_passes_through_both_corners():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    block = p.blocks[0][0]
    assert fixed_points(block, 0.0)[0][1] == 0.0
    assert fixed_points(block, p.a0)[0][1] == pytest.approx(p.c0)


def test_fixed_curve_points_have_tiny_residual():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    for x in np.linspace(0.0, p.a0, 21).tolist():
        y = fixed_points(p.blocks[0][0], x)[0][1]
        nx, ny = p.blocks[0][0].step((x, y))
        assert max(abs(nx - x), abs(ny - y)) <= 1e-12
    # On the line the fixed points are 11 samples of that curve.
    samples = np.linspace(0.0, p.a0, 11).tolist()
    block = p.blocks[0][0]
    assert fixed_points(block) == tuple((x, fixed_points(block, x)[0][1]) for x in samples)


def test_on_the_face_u_0_the_curve_is_the_edge_y_0_and_the_edge_x_a0_is_fixed():
    # The two-type block (0, a, 0, 1 - b): the curve's formula is 0/0 at x = a0.
    block = TwoTypeParams(0.3, 0.4).blocks[0][0]
    samples = np.linspace(0.0, block.a0, 11).tolist()
    assert fixed_points(block) == tuple((x, 0.0) for x in samples)
    assert fixed_points(block, block.a0) == ((block.a0, 0.0),)
    for point in [*fixed_points(block), *((block.a0, y) for y in samples)]:
        assert block.step(point) == point


def _kinds(p):
    """``fixed_kind`` of each fixed point of the type-1/2 block, as ``classify`` reports it."""
    block = p.blocks[0][0]
    return {pt: fixed_kind(block, pt) for pt in fixed_points(block)}


def test_classification_below_critical_line():
    kinds = _kinds(params(a=0.3, c=0.3))
    assert kinds == {(0.0, 0.0): "attracting", (0.5, 0.5): "saddle"}


def test_classification_above_critical_line():
    kinds = _kinds(params(a=0.7, c=0.7))
    assert kinds == {(0.0, 0.0): "saddle", (0.5, 0.5): "attracting"}


def test_classification_on_critical_line_is_non_hyperbolic():
    kinds = _kinds(params(a=0.4, c=0.6))
    assert len(kinds) == 11
    assert set(kinds.values()) == {"non_hyperbolic"}


# -- limit prediction --------------------------------------------------------


def _predict(p, state):
    """The predicted limit of a slice state, checked as a state."""
    limit = predict_one(predict_limit, p, state)
    return make_state(limit[:4], limit[4:])


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
    limit = _predict(p, state)
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
    limit = _predict(p, state)
    x, y = limit[:4], limit[4:]
    # A block on its line keeps its x+y and ends on its fixed curve.
    for block, (i, *_) in p.blocks:
        if pair_side(block.det) == 0:
            assert x[i] + y[i] == pytest.approx(state[i] + state[4 + i], rel=0, abs=1e-15)
            assert y[i] == pytest.approx(fixed_points(block, x[i])[0][1], rel=0, abs=1e-15)
    assert max(abs(n - o) for n, o in zip(p.step(limit), limit)) <= 1e-15
    run = dynamics.iterate_map(p.step, state, Tolerance(iter_eps=1e-15))
    assert max(abs(u - v) for u, v in zip(run.states[-1], limit)) <= 1e-12
    assert survivor_label(p) == label


def test_limits_inside_the_critical_band_lie_on_the_fixed_curve():
    # 0 < |1 - a - c| <= CRITICAL_EPS: the block counts as critical, its limit is
    # ``pair_point`` of its first row, and ``fixed_points`` samples that row's curve.
    rng = np.random.default_rng(43)
    a, b, d, a0, c0 = rng.uniform(0.01, 0.99, (5, 2000))
    c = 1.0 - a - rng.choice([-1.0, 1.0], 2000) * rng.uniform(0.01, 1.0, 2000) * CRITICAL_EPS
    p = FourTypeParams(a, b, c, d, a0, c0)
    det = 1.0 - a - c
    assert np.all((det != 0.0) & (np.abs(det) <= CRITICAL_EPS))
    assert np.all(pair_side(p.blocks[0][0].det) == 0)
    f, m = rng.uniform(0.05, 0.95, (2, 2, 2000))
    starts = np.stack([f[0] * a0, (1 - f[0]) * a0, f[1] * (1 - a0), (1 - f[1]) * (1 - a0),
                       m[0] * c0, (1 - m[0]) * c0, m[1] * (1 - c0), (1 - m[1]) * (1 - c0)], axis=1)
    limits, fixed, invalid = predict_limit(p, starts)
    assert not (fixed | invalid).any()
    curve = np.array(fixed_points(p.blocks[0][0], limits[:, 0]))[:, 1]
    assert np.abs(limits[:, 4] - curve).max() <= 1e-14


def test_predict_limit_rejects_fixed_state():
    p = params(a=0.3, c=0.3)
    corner = make_state([0.0, 0.5, 0.0, 0.5], [0.0, 0.5, 0.0, 0.5])
    with pytest.raises(FixedPointInputError):
        _predict(p, corner)


def test_predict_limit_checks_slice_sums():
    p = params(a=0.3, c=0.3, a0=0.4, c0=0.4)
    with pytest.raises(ValueError):
        _predict(p, _interior_state(0.5, 0.5))


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
        predicted = _predict(p, state)
        run = dynamics.iterate_map(p.step, state)
        assert max(abs(u - v) for u, v in zip(run.states[-1], predicted)) <= 1e-6


# -- critical line: conservation and empirical limits -------------------------


def test_sum_conserved_on_critical_line():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    run = dynamics.iterate_map(p.blocks[0][0].step, (0.3, 0.1))
    # Unthinned, so the drift below covers every step.
    assert len(run.states) < dynamics.TRAJECTORY_STORE_CAP
    assert conserved_quantity_drift(run, lambda s: s[0] + s[1]) <= 1e-12


def test_critical_trajectories_land_on_fixed_curve():
    p = params(a=0.4, c=0.6, a0=0.5, c0=0.5)
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = (float(rng.uniform(0.02, 0.48)), float(rng.uniform(0.02, 0.48)))
        run = dynamics.iterate_map(p.blocks[0][0].step, s)
        x_end, y_end = run.states[-1]
        assert abs(y_end - fixed_points(p.blocks[0][0], x_end)[0][1]) <= 1e-6


# -- critical section map ----------------------------------------------------


def test_critical_step_affine_case():
    cp = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    # quadratic term vanishes: x' = (1 - (a0+c0)/2) x + a0/2
    for x in (0.0, 0.3, 1.0):
        assert cp.step((x,)) == pytest.approx((0.5 * x + 0.2,))


def test_critical_step_endpoint_values():
    cp = CriticalMapParams(a=0.7, a0=0.35, c0=0.8)
    assert cp.step((0.0,)) == pytest.approx((cp.a * cp.a0,))
    assert cp.step((1.0,)) == pytest.approx((1.0 - cp.c0 * (1.0 - cp.a),))


def test_critical_step_quadratic_example():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    # x' = 0.5 x^2 + 0.375
    assert cp.step((0.0,)) == pytest.approx((0.375,))
    assert cp.step((0.5,)) == pytest.approx((0.5,))
    assert cp.step((1.0,)) == pytest.approx((0.875,))


def test_critical_step_maps_interval_to_itself():
    rng = np.random.default_rng(16)
    xs = np.linspace(0.0, 1.0, 1001)
    for _ in range(100):
        cp = CriticalMapParams(
            a=float(rng.uniform(0.02, 0.98)),
            a0=float(rng.uniform(0.02, 0.98)),
            c0=float(rng.uniform(0.02, 0.98)),
        )
        (values,) = cp.step((xs,))
        # The array form gives each number's image bit for bit.
        assert values.tolist() == [cp.step((x,))[0] for x in xs.tolist()]
        assert values.min() >= -1e-15
        assert values.max() <= 1.0 + 1e-15


def test_critical_fixed_point_affine():
    point, spurious, discriminant = critical_fixed_points(CriticalMapParams(a=0.5, a0=0.4, c0=0.6))
    assert point == pytest.approx(0.4)
    assert spurious is None and discriminant is None


def test_critical_fixed_point_quadratic():
    point, spurious, discriminant = critical_fixed_points(CriticalMapParams(a=0.75, a0=0.5, c0=0.5))
    assert point == pytest.approx(0.5, abs=1e-12)
    assert spurious == pytest.approx(1.5, abs=1e-12)
    assert discriminant == pytest.approx(0.25, abs=1e-12)


def test_root_ordering():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a = float(rng.uniform(0.02, 0.98))
        if abs(a - 0.5) < 1e-3:
            continue
        cp = CriticalMapParams(a=a, a0=float(rng.uniform(0.02, 0.98)), c0=float(rng.uniform(0.02, 0.98)))
        point, spurious, _ = critical_fixed_points(cp)
        assert 0.0 < point < 1.0
        if a > 0.5:
            assert spurious > 1.0
        else:
            assert spurious < 0.0
        # closed-form root really is fixed
        assert cp.step((point,)) == pytest.approx((point,), abs=1e-12)


def test_critical_slope_quadratic_case():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    assert critical_slope(cp) == pytest.approx(0.5, abs=1e-12)
    discriminant = critical_fixed_points(cp)[2]
    assert critical_slope(cp) == pytest.approx(1.0 - np.sqrt(discriminant), abs=1e-12)


def test_critical_slope_affine_case():
    # the affine map has constant slope 1 - (a0+c0)/2
    cp = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    assert critical_slope(cp) == pytest.approx(0.5, abs=1e-15)
    h = 1e-6
    t = critical_fixed_points(cp)[0]
    numeric = (cp.step((t + h,))[0] - cp.step((t - h,))[0]) / (2 * h)
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
        assert scan_periodic_points(lambda x: cp.step((x,))[0], period, grid=100_000) == []


def test_scan_sanity_on_logistic_map():
    cycle = scan_periodic_points(lambda x: 4.0 * x * (1.0 - x), 2, grid=100_000)
    assert len(cycle) == 2
    assert cycle == pytest.approx([(5 - np.sqrt(5)) / 8, (5 + np.sqrt(5)) / 8], abs=1e-8)


def test_predict_limit_critical():
    cp = CriticalMapParams(a=0.75, a0=0.5, c0=0.5)
    assert predict_one(predict_limit_critical, cp, 0.1) == pytest.approx((0.5,))
    affine = CriticalMapParams(a=0.5, a0=0.4, c0=0.6)
    assert predict_one(predict_limit_critical, affine, 0.9) == pytest.approx((0.4,))
    with pytest.raises(FixedPointInputError):
        predict_one(predict_limit_critical, cp, 0.5)


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
        assert abs(run.states[-1][0] - predict_one(predict_limit_critical, cp, x0)[0]) <= 1e-6
