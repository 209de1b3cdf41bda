"""Closed-form dynamics of the two-type bisexual population.

With two female and two male types the evolution operator collapses, via
x2 = 1 - x1 and y2 = 1 - y1, to a planar map on the unit square,

    x' = x + a (1 - x) y,        y' = y (x + b (1 - x)),

driven by two mixing probabilities a, b in (0, 1).  It is the pair block
(u, beta, gamma, w) = (0, a, 0, 1-b) of ``four_types._pair_step`` on the unit
square, M = [[0, a], [0, b-1]], in which the pairing (type-1 mother, type-2
father) breeds true: the paper's reduced model, not an output of ``construct``,
which no graph data is known to give, so ``lift_operator`` writes its tables
out.  Its Jacobian is the block's ``four_types.pair_jacobian``, and its det M
is 0 for every a and b.
The map fixes the whole segment y = 0 and the whole edge x = 1
(``FIXED_SEGMENTS``), conserves the linear level x / a + y / (1 - b), the
block's w x + beta y over a (1 - b), increases x and decreases y
monotonically, and every other point converges to where its level line meets
those segments, ``four_types.pair_limit``.

With u = 1 - x the map is u' = u (1 - a y), y' = y (x + b u), so each move is
u y (a, b - 1) and the ratio of two moves is (1 - a y)(x + b u).  A start of
level L = (1 - b) x0 + a y0, the block's w x + beta y, goes to the corner's
left when L < 1 - b, where y closes in on 0 and x + b u <= b + L, and to its
right otherwise, where u closes in on 0 and 1 - a y <= 1 - (L - (1 - b)).  So
no move is more than q = 1 - |L - (1 - b)|, the rate of the limit itself,
times the move before it, and at every point the next move m bounds the
max-norm distance to the limit by m / (1 - q) (``certificate``); at the
corner (1, 0) q is 1, and there is no such bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import predicted
from .four_types import PairBlock, Point2, pair_limit
from .simplex import DEFAULT_TOLERANCE, Tolerance, check_open_unit, check_unit
if TYPE_CHECKING:
    from .construction import BisexualOperator

# The fixed-point set of the reduced map, for every a and b.
FIXED_SEGMENTS = {"horizontal": "y = 0, x in [0, 1)", "right_edge": "x = 1, y in [0, 1]"}


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

    @property
    def blocks(self) -> tuple:
        """The one ``PairBlock``, (0, a, 0, 1-b) on the unit square, stepping (x, y)."""
        return ((PairBlock(0.0, self.a, 0.0, 1.0 - self.b, 1.0, 1.0), (0, 1)),)

    def step(self, s: Point2) -> Point2:
        """One step of the reduced planar map; maps the unit square into itself."""
        # Written out: ``_pair_step`` of (0, a, 0, 1-b) made two-type verify 8-33 % slower.
        x, y = s
        rest = 1.0 - x
        return (x + self.a * rest * y, y * (x + self.b * rest))


def lift_operator(p: TwoTypeParams) -> BisexualOperator:
    """The full 2x2-type operator whose reduction is ``TwoTypeParams.step``, its tables written
    out: every pair breeds true but (type-2 mother, type-1 father), whose daughters and sons
    are type 1 with probabilities a and b; b as given, as 1 - (1 - b) is not b for b = 0.1."""
    from .construction import BisexualOperator
    a, b = p.a, p.b
    return BisexualOperator.from_tensors([[[1.0, 0.0], [1.0, 0.0]], [[a, 1.0 - a], [0.0, 1.0]]],
                                         [[[1.0, 0.0], [0.0, 1.0]], [[b, 1.0 - b], [0.0, 1.0]]])


def stop_rate(p: TwoTypeParams, starts):
    """The rate bound q = 1 - |L - (1 - b)| of each of the (B, 2) ``starts`` of level L,
    and the norm factor kappa = 1: every move points along the level line."""
    x, y = np.asarray(starts, dtype=float).T
    (block, _), = p.blocks
    return 1.0 - np.abs(block.w * x + block.beta * y - block.w), 1.0


def certificate(p: TwoTypeParams, starts, end):
    """(rate, observed_rate, error_bound) of the rows that ended at the columns of the
    (2, B) ``end``: the start's q, NaN where it is not below 1, the ratio (1 - a y)(x + b u)
    of the next two moves, and m1 / (1 - q), m1 the next move's max norm."""
    q = stop_rate(p, starts)[0]
    rate = np.where(q < 1.0, q, np.nan)
    x, y = end
    rest = 1.0 - x
    (block, _), = p.blocks
    bound = np.maximum(block.beta, block.w) * rest * y / (1.0 - rate)
    return rate, (1.0 - p.a * y) * (x + p.b * rest), bound


def predict_limit(p: TwoTypeParams, starts, tol: Tolerance = DEFAULT_TOLERANCE):
    """Closed-form limits of the (B, 2) ``starts`` in the unit square, as
    ``dynamics.predicted`` returns them; ``p`` may be stacked.  With level
    c = x0/a + y0/(1-b) the limit is (ac, 0) when ac < 1 and (1, (ac - 1)(1 - b)/a)
    when ac >= 1; at ac = 1 both expressions give the corner (1, 0).  Below ac = 1
    its y is exactly 0, above it its x exactly 1."""
    coords = check_unit(np.asarray(starts, dtype=float), "the unit square").T
    (block, _), = p.blocks
    return predicted(p, coords, pair_limit(*block, *coords), tol)
