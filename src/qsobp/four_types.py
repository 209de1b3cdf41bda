"""Closed-form dynamics of the four-type bisexual population.

The operator on two 3-simplexes conserves the pairwise sums x1+x2, x3+x4,
y1+y2, y3+y4, so after one step every trajectory lives on a slice where
these sums are fixed constants (a0, 1-a0, c0, 1-c0).  On a slice the
dynamics splits into two independent planar subsystems: one for the
type-1/2 block in the coordinates (x, y) = (x1, y1), one for the type-3/4
block in (u, v) = (x3, y3); the second is the first under the parameter
swap a<->b, c<->d, a0<->1-a0, c0<->1-c0, and is implemented only through
that swap: ``FourTypeParams.step`` applies one pair kernel to the type-1/2
block with (a, c) and to the type-3/4 block with (b, d), and ``sub12_step``
is that kernel on (x, a0 - x, y, c0 - y).

Away from the critical lines a+c = 1 and b+d = 1 each subsystem has two
isolated fixed points whose stability flips with the sign of a+c-1, and
every interior trajectory converges to a corner determined by those signs.
On a+c = 1 the fixed points form a curve and x+y is conserved, so every
line x+y = k meets the curve in one point, the limit of every start on that
line; ``critical_root`` gives it in closed form.  The diagonal section
x+y = 1 is a one-dimensional quadratic self-map of [0, 1] with a single
attracting fixed point and no periodic orbits of period two or more;
``CriticalMapParams.step`` is that map, on a number or on a numpy array.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .construction import BisexualOperator, mixing_operator
from .dynamics import predicted
from .simplex import DEFAULT_TOLERANCE, Tolerance, check_open_unit, check_unit

# Parameter sums within this distance of 1 are treated as critical.
CRITICAL_EPS = 1e-9
# On the critical line, a quadratic coefficient 2a-1 this small is treated as zero.
AFFINE_EPS = 1e-12

Point2 = tuple[float, float]
Coords8 = tuple[float, float, float, float, float, float, float, float]


@dataclass(frozen=True)
class FourTypeParams:
    """Mixing probabilities a, b, c, d and slice sums a0, c0, all in (0, 1).

    ``a`` and ``c`` drive the type-1/2 block (daughters and sons of mixed
    1-2 pairings), ``b`` and ``d`` the type-3/4 block; ``a0`` and ``c0``
    are the conserved female and male first-pair totals of the slice under
    study.
    """

    a: float
    b: float
    c: float
    d: float
    a0: float
    c0: float

    def __post_init__(self):
        check_open_unit(self)

    def step(self, coords: Coords8) -> Coords8:
        """One step on bare coordinates (x1..x4, y1..y4); pairwise sums conserved."""
        x1, x2, x3, x4, y1, y2, y3, y4 = coords
        x1, x2, y1, y2 = _pair_step(self.a, self.c, x1, x2, y1, y2)
        x3, x4, y3, y4 = _pair_step(self.b, self.d, x3, x4, y3, y4)
        return (x1, x2, x3, x4, y1, y2, y3, y4)

    def sub12_step(self, s: Point2) -> Point2:
        """Type-1/2 block: advance (x1, y1) inside the box [0,a0] x [0,c0]."""
        x, y = s
        x, _, y, _ = _pair_step(self.a, self.c, x, self.a0 - x, y, self.c0 - y)
        return (x, y)


def _pair_step(a, c, x1, x2, y1, y2):
    """One step of a block's female pair (x1, x2) and male pair (y1, y2), whose two
    mixed pairings have daughters of the first type with probability ``a`` and
    sons of the first type with probability ``c``."""
    # The offspring mass each mixed pairing moves between the two types.
    fa, fa_back = (1.0 - a) * x1 * y2, a * x2 * y1
    mc, mc_back = (1.0 - c) * x2 * y1, c * x1 * y2
    return (x1 - fa + fa_back, x2 - fa_back + fa, y1 - mc + mc_back, y2 - mc_back + mc)


def slice_sums(coords) -> tuple:
    """The four conserved pairwise sums (x1+x2, x3+x4, y1+y2, y3+y4) of the
    coordinates (x1..x4, y1..y4), each a number or a (B,) array."""
    x1, x2, x3, x4, y1, y2, y3, y4 = coords
    return (x1 + x2, x3 + x4, y1 + y2, y3 + y4)


def lift_operator(p: FourTypeParams) -> BisexualOperator:
    """The 4x4-type operator as heredity tensors (uses a, b, c, d only): the
    ``mixing_operator`` whose mixed pairings within a block redistribute the
    offspring type inside the block."""
    block12 = ((p.a, 1.0 - p.a, 0.0, 0.0), (p.c, 1.0 - p.c, 0.0, 0.0))
    block34 = ((0.0, 0.0, p.b, 1.0 - p.b), (0.0, 0.0, p.d, 1.0 - p.d))
    mixing = {(0, 1): block12, (1, 0): block12, (2, 3): block34, (3, 2): block34}
    return mixing_operator(4, 4, mixing)


# ---------------------------------------------------------------------------
# The two decoupled planar subsystems on a slice.
# ---------------------------------------------------------------------------


def sub12_jacobian(p: FourTypeParams, s: Point2) -> np.ndarray:
    """Jacobian of ``sub12_step`` at s = (x, y); on (B,) arrays x, y it is (2, 2, B)."""
    x, y = s
    a, c, a0, c0 = p.a, p.c, p.a0, p.c0
    return np.array(
        [
            [1.0 - (1.0 - a) * c0 + (1.0 - 2.0 * a) * y, a * a0 + (1.0 - 2.0 * a) * x],
            [c * c0 + (1.0 - 2.0 * c) * y, 1.0 - (1.0 - c) * a0 + (1.0 - 2.0 * c) * x],
        ]
    )


def fixed_curve(p: FourTypeParams, x):
    """On the critical line a+c = 1: y at x along the fixed curve; x may be a numpy array."""
    return p.c * p.c0 * x / (p.a * p.a0 + (p.c - p.a) * x)


def sub12_fixed_points(p: FourTypeParams) -> tuple[Point2, ...]:
    """Fixed points of the type-1/2 block, in increasing x.

    Off the critical line these are exactly the corners (0, 0) and
    (a0, c0).  On it, every point of the curve y = c c0 x / (a a0 + (c-a) x)
    is fixed; it is returned as 11 evenly sampled points (the curve passes
    through both corners).
    """
    if limit_branch(p)[0]:
        return ((0.0, 0.0), (p.a0, p.c0))
    return tuple((float(x), float(fixed_curve(p, x))) for x in np.linspace(0.0, p.a0, 11))


# ---------------------------------------------------------------------------
# Limit prediction on a slice.
# ---------------------------------------------------------------------------


def _side(total):
    """1 when a block's parameter sum lies above one, -1 below, 0 on its critical line."""
    return (total - 1.0 > CRITICAL_EPS) * 1 - (1.0 - total > CRITICAL_EPS)


# The types of a block that persist in the limit, by the block's side: the
# first type above the line, the second below it, both on it.
_BLOCK_TYPES = ({-1: "2", 0: "12", 1: "1"}, {-1: "4", 0: "34", 1: "3"})
SURVIVOR_LABELS = tuple(
    "|".join(",".join(sex + t for t in t12 + t34) for sex in "fm")
    for t12 in _BLOCK_TYPES[0].values()
    for t34 in _BLOCK_TYPES[1].values()
)


def limit_branch(p: FourTypeParams) -> tuple:
    """Sides of (a+c, b+d): 1 above one, -1 below, 0 on the critical line."""
    return (_side(p.a + p.c), _side(p.b + p.d))


def survivor_code(p: FourTypeParams):
    """Index into ``SURVIVOR_LABELS`` of which types persist in the predicted limit."""
    side12, side34 = limit_branch(p)
    return 3 * side12 + side34 + 4


def _block_limit(side, a, a0, c0, x, y):
    """Limit (x, a0 - x, y, c0 - y) of the type-1/2 block from its start (x, y): a
    corner off the critical line, and on it the fixed point on the start's line x+y = k.
    The type-3/4 block, the type-1/2 block under the parameter swap, passes (b, 1-a0, 1-c0)."""
    k = x + y
    root = critical_root(a, a0, c0, k)[0]
    x_limit = np.where(side > 0, a0, np.where(side < 0, 0.0, root))
    y_limit = np.where(side > 0, c0, np.where(side < 0, 0.0, k - root))
    return x_limit, a0 - x_limit, y_limit, c0 - y_limit


def predict_limit(p: FourTypeParams, starts, tol: Tolerance = DEFAULT_TOLERANCE):
    """Closed-form limits of the full operator from the (B, 8) slice ``starts``, as
    ``dynamics.predicted`` returns them; ``p`` may be stacked.  ``ValueError`` when a
    start's slice sums miss its a0, c0; ``simplex.check_states`` checks the limits."""
    coords = np.asarray(starts, dtype=float).T
    sums = slice_sums(coords)
    off = (np.abs(sums[0] - p.a0) > tol.abs_eps) | (np.abs(sums[2] - p.c0) > tol.abs_eps)
    if off.any():
        raise ValueError(f"the slice sums of start {np.argmax(off)} miss its a0, c0")
    side12, side34 = limit_branch(p)
    x1, x2, y1, y2 = _block_limit(side12, p.a, p.a0, p.c0, coords[0], coords[4])
    x3, x4, y3, y4 = _block_limit(side34, p.b, 1.0 - p.a0, 1.0 - p.c0, coords[2], coords[6])
    return predicted(p, coords, (x1, x2, x3, x4, y1, y2, y3, y4), tol)


# ---------------------------------------------------------------------------
# The one-dimensional map on the diagonal section of the critical line.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalMapParams:
    """Parameters of the section map when a+c = 1 (c is implied as 1-a)."""

    a: float
    a0: float
    c0: float

    def __post_init__(self):
        check_open_unit(self)

    @property
    def is_affine(self) -> bool:
        # The quadratic coefficient 2a-1 vanishes at a = 1/2.
        return abs(2.0 * self.a - 1.0) <= AFFINE_EPS

    def step(self, s: tuple) -> tuple:
        """The section map x' = (2a-1) x^2 + ((1-a)(2-c0) - a a0) x + a a0 on 1-tuples.

        Maps [0, 1] into itself; the coordinate is a number or a numpy array.
        """
        (x,) = s
        quad = 2.0 * self.a - 1.0
        lin = (1.0 - self.a) * (2.0 - self.c0) - self.a * self.a0
        return (quad * x * x + lin * x + self.a * self.a0,)


def critical_root(a, a0, c0, k):
    """Where the line x+y = k meets the fixed curve of the type-1/2 block when c = 1-a.

    ``(inside, outside, discriminant)``: the root in [max(0, k-c0), min(a0, k)]
    of (2a-1) x^2 - K x + k a a0 = 0, K = k + a a0 - (1-a)(2k - c0), and the
    other root; at a = 1/2 the first is k a0 / (a0 + c0) and the others are
    meaningless.  Each argument is a number or an array.
    """
    quad = 2.0 * a - 1.0
    # At k = 1.0 every operation is the section map's own, bit for bit.
    big_k = k + a * a0 - (1.0 - a) * (2.0 * k - c0)
    disc = big_k * big_k - 4.0 * a * a0 * quad * k
    root = np.sqrt(np.maximum(disc, 0.0))
    # Pair the additions by sign to avoid cancellation: the in-range root
    # carries -sign(K)*sqrt(D).
    positive = big_k >= 0.0
    q = (big_k + np.where(positive, root, -root)) / 2.0
    # Rows of stacked parameters outside (0, 1) may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        by_q, by_quad, affine = (a * a0 * k) / q, q / quad, k * a0 / (a0 + c0)
    inside = np.where(np.abs(quad) <= AFFINE_EPS, affine, np.where(positive, by_q, by_quad))
    return inside, np.where(positive, by_quad, by_q), disc


def critical_fixed_points(cp: CriticalMapParams):
    """The section map's ``(point, spurious, discriminant)``: ``critical_root`` at k = 1.

    ``point`` is the one fixed point in [0, 1], with derivative 1 - sqrt(D);
    ``spurious`` lies outside [0, 1].  Both others are None at a = 1/2.
    """
    point, spurious, disc = map(float, critical_root(cp.a, cp.a0, cp.c0, 1.0))
    return (point, None, None) if cp.is_affine else (point, spurious, disc)


def critical_slope(cp: CriticalMapParams) -> float:
    """Derivative of the section map at its in-range fixed point.

    Equals 1 - sqrt(D) in the quadratic case and 1 - (a0+c0)/2 in the
    affine case; its absolute value is below one for all valid parameters,
    so the fixed point is always attracting.
    """
    t = critical_fixed_points(cp)[0]
    return 2.0 * (2.0 * cp.a - 1.0) * t + (1.0 - cp.a) * (2.0 - cp.c0) - cp.a * cp.a0


def predict_limit_critical(cp: CriticalMapParams, starts, tol: Tolerance = DEFAULT_TOLERANCE):
    """Every non-fixed point of [0, 1] converges to the in-range fixed point: the
    (B, 1) limits of the (B, 1) ``starts`` with the masks of ``dynamics.predicted``;
    ``cp`` may be stacked (B,) arrays."""
    coords = check_unit(np.asarray(starts, dtype=float), "[0, 1]").T
    return predicted(cp, coords, (critical_root(cp.a, cp.a0, cp.c0, 1.0)[0],), tol)
