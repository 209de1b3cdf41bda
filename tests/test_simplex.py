"""Validation and metric behavior of population states, the coordinate arrays
of points of a product of simplexes."""

import numpy as np
import pytest

from qsobp.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
)
from qsobp.simplex import Tolerance, block_totals, check_states, make_state

from helpers import random_state, simplex_violation, state_distance


def test_symmetric_point_is_valid():
    s = make_state([0.5, 0.5], [0.25, 0.75])
    assert s.dtype == np.float64
    assert s.tolist() == [0.5, 0.5, 0.25, 0.75]


def test_vertex_is_valid():
    assert make_state([1.0, 0.0], [0.0, 1.0]).tolist() == [1.0, 0.0, 0.0, 1.0]


def test_single_type_population():
    assert make_state([1.0], [1.0]).tolist() == [1.0, 1.0]


def test_rejects_unnormalized():
    for blocks in (([0.5, 0.6], [1.0]), ([1.0], [0.5, 0.6])):
        with pytest.raises(NotNormalizedError, match=r"entries sum to 1\.1, expected 1"):
            make_state(*blocks)


def test_rejects_negative_entry():
    for blocks in (([-1e-6, 1.0 + 1e-6], [1.0]), ([1.0], [-1e-6, 1.0 + 1e-6])):
        with pytest.raises(NegativeEntryError, match=r"entry -1e-06 < -1e-12"):
            make_state(*blocks)


def test_accepts_tiny_negative_dust():
    s = make_state([-1e-13, 1.0 + 1e-13], [1.0, -1e-13])
    assert s[0] == -1e-13 and s[3] == -1e-13


def test_rejects_nan():
    with pytest.raises(NotNormalizedError, match="entries sum to nan"):
        make_state([float("nan"), 0.5], [1.0])


def test_rejects_empty():
    for blocks in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(DimensionMismatchError, match="at least one entry"):
            make_state(*blocks)


def test_check_states_rejects_an_empty_block_as_make_state_does():
    states = np.full((2, 3), 1.0 / 3.0)
    for n in (0, 3):
        assert [t.tolist() for t in block_totals(states, n)] == (
            [[0.0, 0.0], [1.0, 1.0]] if n == 0 else [[1.0, 1.0], [0.0, 0.0]]
        )
        with pytest.raises(DimensionMismatchError, match="at least one entry"):
            check_states(states, n)


@pytest.mark.parametrize(
    "female, male",
    [
        ([-0.0, -0.0], [1.0]),  # totals 0.0, as Python's sum, which starts at 0, gives
        ([float("inf")], [1.0]),
        ([float("-inf"), float("inf")], [1.0]),
        ([1e308, 1e308], [1.0]),
        ([1.0], [float("nan"), -1.0]),
        ([0.5, 0.5 + 2e-9], [-1.0, 2.0]),
        ([2.0, -1.0], [0.25, 0.25, 0.5]),
        ([-1e-6, 1.0 + 1e-6], [0.5, 0.6]),  # the female block is checked first
        ([0.5, 0.6], []),
    ],
)
def test_make_state_raises_the_error_of_the_reference_rule(female, male):
    # check_states raises the same for the row between two valid ones; inf and 1e308
    # entries warn nothing, as pytest turns RuntimeWarning into an error.
    kind, message = simplex_violation(female, male)
    with pytest.raises(kind) as info:
        make_state(female, male)
    assert str(info.value) == message
    rows = [np.concatenate([np.asarray(female, dtype=float), np.asarray(male, dtype=float)])]
    if female and male:
        good = np.concatenate([np.full(len(block), 1.0 / len(block)) for block in (female, male)])
        rows = [good, rows[0], good]
    with pytest.raises(kind) as info:
        check_states(np.stack(rows), len(female))
    assert str(info.value) == message


def test_distance_identical_states_is_zero():
    s = make_state([0.3, 0.7], [0.2, 0.8])
    assert state_distance(s, s) == 0.0


def test_distance_vertex_swap_is_one():
    s1 = make_state([1.0, 0.0], [1.0, 0.0])
    s2 = make_state([0.0, 1.0], [1.0, 0.0])
    assert state_distance(s1, s2) == 1.0


def test_distance_single_coordinate_shift():
    s1 = make_state([0.5, 0.5], [0.5, 0.5])
    s2 = make_state([0.6, 0.4], [0.5, 0.5])
    assert state_distance(s1, s2) == pytest.approx(0.1)


def test_distance_dimension_mismatch():
    s1 = make_state([0.5, 0.5], [0.5, 0.5])
    s2 = make_state([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(DimensionMismatchError):
        state_distance(s1, s2)


def test_distance_is_a_metric_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s1 = random_state(rng, 3, 4)
        s2 = random_state(rng, 3, 4)
        s3 = random_state(rng, 3, 4)
        d12 = state_distance(s1, s2)
        assert d12 == state_distance(s2, s1)
        assert d12 >= 0.0
        assert state_distance(s1, s1) == 0.0
        assert state_distance(s1, s3) <= d12 + state_distance(s2, s3) + 1e-15


def test_tolerance_defaults_and_validation():
    tol = Tolerance()
    assert tol.abs_eps == 1e-9
    assert tol.iter_eps == 1e-12
    assert tol.max_iters == 10**6
    with pytest.raises(ValueError, match="^abs_eps must be finite and strictly positive, got 0.0$"):
        Tolerance(abs_eps=0.0)
    with pytest.raises(ValueError, match="^iter_eps must be finite and strictly positive, got inf$"):
        Tolerance(iter_eps=float("inf"))
    with pytest.raises(ValueError, match="^max_iters must be finite and strictly positive, got 0$"):
        Tolerance(max_iters=0)
