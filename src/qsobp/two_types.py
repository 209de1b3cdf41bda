"""Closed-form dynamics of the two-type bisexual population.

With two female and two male types the evolution operator collapses, via
x2 = 1 - x1 and y2 = 1 - y1, to a planar map on the unit square,

    x' = x + a (1 - x) y,        y' = y (x + b (1 - x)),

driven by two mixing probabilities a, b in (0, 1).  The map fixes the whole
segment y = 0 and the whole edge x = 1 (``FIXED_SEGMENTS``), conserves the
linear level x / a + y / (1 - b), increases x and decreases y monotonically,
and every other point converges to a boundary point determined in closed
form by its conserved level.  The predictor tells a fixed start through the
map itself, with ``dynamics.is_fixed``, not through membership in the
segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .construction import BisexualOperator
from .dynamics import is_fixed
from .errors import FixedPointInputError
from .simplex import DEFAULT_TOLERANCE, PopulationState, Tolerance, check_open_unit, make_state

# The fixed-point set of the reduced map, for every a and b.
FIXED_SEGMENTS = {"horizontal": "y = 0, x in [0, 1)", "right_edge": "x = 1, y in [0, 1]"}

Point2 = tuple[float, float]


@dataclass(frozen=True)
class TwoTypeParams:
    """Mixing probabilities of the two-type case; both strictly inside (0, 1).

    ``a`` is the probability that a mixed pairing (type-2 mother, type-1
    father) produces a type-1 daughter; ``b`` the probability that it
    produces a type-1 son.
    """

    a: float
    b: float

    def __post_init__(self):
        check_open_unit(self)

    def step(self, s: Point2) -> Point2:
        """One step of the reduced planar map; maps the unit square into itself."""
        x, y = s
        rest = 1.0 - x
        return (x + self.a * rest * y, y * (x + self.b * rest))


def jacobian_matrix(p: TwoTypeParams, s: Point2) -> np.ndarray:
    """Jacobian of the reduced map: [[1-ay, a(1-x)], [y(1-b), x(1-b)+b]].

    On (B,) arrays x, y it is (2, 2, B).
    """
    x, y = s
    return np.array(
        [
            [1.0 - p.a * y, p.a * (1.0 - x)],
            [y * (1.0 - p.b), x * (1.0 - p.b) + p.b],
        ]
    )


def lift_operator(p: TwoTypeParams) -> BisexualOperator:
    """The full 2x2-type operator whose reduction is ``TwoTypeParams.step``.

    Heredity rows: every parent pair breeds true except the (type-2 mother,
    type-1 father) pair, which yields type-1 daughters with probability
    ``a`` and type-1 sons with probability ``b``.
    """
    pf = np.zeros((2, 2, 2))
    pf[0, 0] = (1.0, 0.0)
    pf[0, 1] = (1.0, 0.0)
    pf[1, 0] = (p.a, 1.0 - p.a)
    pf[1, 1] = (0.0, 1.0)
    pm = np.zeros((2, 2, 2))
    pm[0, 0] = (1.0, 0.0)
    pm[0, 1] = (0.0, 1.0)
    pm[1, 0] = (p.b, 1.0 - p.b)
    pm[1, 1] = (0.0, 1.0)
    return BisexualOperator.from_tensors(pf, pm)


def reduce_state(state: PopulationState) -> Point2:
    """Project a full two-type state to its (x1, y1) coordinates."""
    return (state.female[0], state.male[0])


def lift_point(s: Point2) -> PopulationState:
    x, y = s
    return make_state([x, 1.0 - x], [y, 1.0 - y])


def invariant_line_level(p: TwoTypeParams, s: Point2) -> float:
    """The conserved level x/a + y/(1-b); constant along every trajectory."""
    x, y = s
    return x / p.a + y / (1.0 - p.b)


def check_start(start: Point2) -> Point2:
    """The start itself; ``ValueError`` when it lies outside the unit square."""
    x, y = start
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ValueError(f"start {start} lies outside the unit square")
    return start


def predict_limit(p: TwoTypeParams, start: Point2, tol: Tolerance = DEFAULT_TOLERANCE) -> Point2:
    """Closed-form trajectory limit for a non-fixed start in the unit square.

    With level c = x0/a + y0/(1-b): the limit is (ac, 0) when ac < 1 and
    (1, (ac - 1)(1 - b)/a) when ac >= 1; at ac = 1 both expressions give
    the corner (1, 0).
    """
    check_start(start)
    if is_fixed(p.step, start, tol):
        raise FixedPointInputError(f"{start} is already a fixed point")
    level = invariant_line_level(p, start)
    reach = p.a * level
    if reach < 1.0:
        return (reach, 0.0)
    return (1.0, (reach - 1.0) * (1.0 - p.b) / p.a)
