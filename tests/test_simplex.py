"""Validation and metric behavior of simplex points and product states."""

import numpy as np
import pytest

from qsobp.errors import (
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
)
from qsobp.simplex import Tolerance, make_distribution, make_state

from helpers import random_state, state_distance


def test_symmetric_point_is_valid():
    d = make_distribution([0.5, 0.5])
    assert d.dim == 2
    assert d.probs == (0.5, 0.5)


def test_vertex_is_valid():
    d = make_distribution([1.0, 0.0])
    assert d.probs == (1.0, 0.0)


def test_single_type_population():
    assert make_distribution([1.0]).dim == 1


def test_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        make_distribution([0.5, 0.6])


def test_rejects_negative_entry():
    with pytest.raises(NegativeEntryError):
        make_distribution([-1e-6, 1.0 + 1e-6])


def test_accepts_tiny_negative_dust():
    d = make_distribution([-1e-13, 1.0 + 1e-13])
    assert d.probs[0] == -1e-13


def test_rejects_nan():
    with pytest.raises(NotNormalizedError):
        make_distribution([float("nan"), 0.5])


def test_rejects_empty():
    with pytest.raises(DimensionMismatchError):
        make_distribution([])


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
    with pytest.raises(ValueError):
        Tolerance(abs_eps=0.0)
    with pytest.raises(ValueError):
        Tolerance(max_iters=0)
