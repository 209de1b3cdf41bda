"""Probability vectors, product states and tolerance settings.

A population state is a pair of probability distributions: one over the
female types, one over the male types.  Everything downstream (operator
application, trajectory iteration, limit prediction) works with these
immutable value types.  Validation happens at construction; states are
never silently renormalized, so conservation bugs surface as validation
failures instead of being masked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, NegativeEntryError, NotNormalizedError

# Construction-time tolerances.  Entries may undershoot zero by at most
# NEGATIVITY_EPS; the total may deviate from one by at most NORMALIZATION_EPS.
NEGATIVITY_EPS = 1e-12
NORMALIZATION_EPS = 1e-9


@dataclass(frozen=True)
class Distribution:
    """A point of the standard simplex: nonnegative entries summing to one."""

    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.probs) == 0:
            raise DimensionMismatchError("a distribution needs at least one entry")
        total = sum(self.probs)
        if not (abs(total - 1.0) <= NORMALIZATION_EPS):
            raise NotNormalizedError(f"entries sum to {total}, expected 1")
        smallest = min(self.probs)
        if not (smallest >= -NEGATIVITY_EPS):
            raise NegativeEntryError(f"entry {smallest} < -{NEGATIVITY_EPS}")

    @property
    def dim(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)

    def __getitem__(self, i: int) -> float:
        return self.probs[i]


def make_distribution(values: Sequence[float]) -> Distribution:
    """Validate a sequence of probabilities and wrap it as a Distribution."""
    return Distribution(tuple(float(v) for v in values))


@dataclass(frozen=True)
class PopulationState:
    """Female and male type distributions, one point of a product of simplexes."""

    female: Distribution
    male: Distribution

    @property
    def dims(self) -> tuple[int, int]:
        return (self.female.dim, self.male.dim)

    def coords(self) -> tuple[float, ...]:
        """All coordinates, female block first."""
        return self.female.probs + self.male.probs


def make_state(female: Sequence[float], male: Sequence[float]) -> PopulationState:
    return PopulationState(make_distribution(female), make_distribution(male))


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs: comparison epsilon, iteration stop, iteration budget."""

    abs_eps: float = 1e-9
    iter_eps: float = 1e-12
    max_iters: int = 10**6

    def __post_init__(self):
        values = (self.abs_eps, self.iter_eps, self.max_iters)
        if not all(0 < v < math.inf for v in values):
            raise ValueError(
                f"all tolerance fields must be finite and strictly positive, got {values}"
            )


DEFAULT_TOLERANCE = Tolerance()


def check_open_unit(params) -> None:
    """``ValueError`` unless every field of the dataclass ``params`` lies strictly inside (0, 1).

    A field is a number or, for parameters stacked one row per trajectory,
    an array whose every entry must lie inside.
    """
    # ``vars`` and ``is True`` keep the check of numbers, by far the most
    # frequent case, as cheap as a chained comparison.
    for name, v in vars(params).items():
        inside = (0.0 < v) & (v < 1.0)
        if not (inside is True or np.all(inside)):
            raise ValueError(f"{name} must lie strictly inside (0,1), got {v}")
