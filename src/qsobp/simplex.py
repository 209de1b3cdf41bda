"""Population states, tolerance settings and the text of floats.

A population state, one point of a product of simplexes, is the float array
of its coordinates: the female block, then the male block.  ``make_state`` and
``check_states`` raise the errors of one array check, ``rejected_rows``.  States
are never silently renormalized, so conservation bugs surface as validation
failures instead of being masked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NegativeEntryError, NotNormalizedError

# Construction-time tolerances.  Entries may undershoot zero by at most
# NEGATIVITY_EPS; the total may deviate from one by at most NORMALIZATION_EPS.
NEGATIVITY_EPS = 1e-12
NORMALIZATION_EPS = 1e-9


def make_state(female: Sequence[float], male: Sequence[float]) -> np.ndarray:
    """The (n + ν,) coordinates of the state with blocks ``female`` and ``male``; raises
    what ``check_states`` raises for it as one row."""
    female = np.asarray(female, dtype=float)
    state = np.concatenate([female, np.asarray(male, dtype=float)])
    check_states(state[None], female.size)
    return state


def block_totals(states: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The female and the male total of each (k, d) ``states`` row: the block's
    running sum, which adds the entries in order, from 0.0 as Python's ``sum`` does
    (a block of -0.0 totals 0.0); 0.0 for an empty block."""
    # Adding 0.0 frees each block's running sums before the next block's are taken.
    # Entries of inf or 1e308 give inf or nan totals, which the check reports.
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(np.cumsum(b, axis=1)[:, -1] + 0.0 if b.shape[1] else np.zeros(len(b))
                     for b in (states[:, :n], states[:, n:]))


def rejected_rows(states: np.ndarray, n: int) -> np.ndarray:
    """Indices of the (k, d) ``states`` rows whose female or male block is not a point
    of a simplex: a ``block_totals`` entry off one by more than NORMALIZATION_EPS, or
    an entry below -NEGATIVITY_EPS."""
    ok = np.ones(len(states), dtype=bool)
    for block, total in zip((states[:, :n], states[:, n:]), block_totals(states, n)):
        ok &= np.abs(total - 1.0) <= NORMALIZATION_EPS
        ok &= block.min(axis=1, initial=math.inf) >= -NEGATIVITY_EPS
    return np.flatnonzero(~ok)


def check_states(states: np.ndarray, n: int) -> None:
    """Raise for the first of the (k, d) ``states`` rows that ``rejected_rows`` finds:
    for its female block, then its male block, the first of no entry, a total off
    one and an entry below -NEGATIVITY_EPS."""
    for row in states[rejected_rows(states, n)[:1]]:
        for block, (total,) in zip((row[:n], row[n:]), block_totals(row[None], n)):
            if not block.size:
                raise DimensionMismatchError("a distribution needs at least one entry")
            if not (abs(total - 1.0) <= NORMALIZATION_EPS):
                raise NotNormalizedError(f"entries sum to {float(total)}, expected 1")
            smallest = float(block.min())
            if not (smallest >= -NEGATIVITY_EPS):
                raise NegativeEntryError(f"entry {smallest} < -{NEGATIVITY_EPS}")


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


def float_texts(values) -> np.ndarray:
    """``float.__repr__`` of each entry of the float array ``values``, as an object
    array of its shape.  Each distinct bit pattern is formatted once, so -0.0 and
    0.0 keep their own texts; the one place where floats become output text."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    return texts[inverse].reshape(values.shape)


def check_unit(start, domain: str):
    """``start``; ``ValueError`` when an entry of it lies outside [0, 1], the ``domain``."""
    if not np.all(np.greater_equal(start, 0.0) & np.less_equal(start, 1.0)):
        raise ValueError(f"start {start} lies outside {domain}")
    return start


def check_open_unit(params):
    """Where every field of the dataclass ``params`` lies strictly inside (0, 1) and is
    not subnormal, too small for the closed forms' products: a number field raises
    ``ValueError`` unless it does, and for fields stacked as (B,) arrays, one row per
    trajectory, the result is the (B,) mask of rows inside."""
    inside = True
    for name, v in vars(params).items():
        ok = (sys.float_info.min <= v) & (v < 1.0)
        if np.ndim(ok) == 0 and not ok:
            if 0.0 < v < sys.float_info.min:
                raise ValueError(f"{name} is subnormal, below {sys.float_info.min}, got {v}")
            raise ValueError(f"{name} must lie strictly inside (0,1), got {v}")
        inside = inside & ok
    return inside
