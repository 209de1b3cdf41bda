"""Closed-form dynamics of the four-type bisexual population.

The operator on two 3-simplexes conserves the pairwise sums x1+x2, x3+x4,
y1+y2, y3+y4, so after one step every trajectory lives on a slice where
these sums are fixed constants (a0, 1-a0, c0, 1-c0).  On a slice the
dynamics splits into two independent planar subsystems: one for the
type-1/2 block in the coordinates (x, y) = (x1, y1), one for the type-3/4
block in (u, v) = (x3, y3); the second is the first under the parameter
swap a<->b, c<->d, a0<->1-a0, c0<->1-c0, and is implemented only through
that swap.

Away from the critical lines a+c = 1 and b+d = 1 each subsystem has two
isolated fixed points whose stability flips with the sign of a+c-1, and
every interior trajectory converges to a corner determined by those signs.
On a+c = 1 the fixed points form a curve and x+y is conserved, so every
line x+y = k meets the curve in one point, the limit of every start on that
line; ``critical_root`` gives it in closed form.  The diagonal section
x+y = 1 is a one-dimensional quadratic self-map of [0, 1] with a single
attracting fixed point and no periodic orbits of period two or more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .construction import BisexualOperator
from .dynamics import FixedPointClass, classify_fixed_point_2d, is_fixed
from .errors import FixedPointInputError
from .simplex import DEFAULT_TOLERANCE, PopulationState, Tolerance, check_open_unit, make_state

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
        a, b, c, d = self.a, self.b, self.c, self.d
        # The offspring mass each mixed pairing moves between the two types of a pair.
        fa, fa_back = (1.0 - a) * x1 * y2, a * x2 * y1
        fb, fb_back = (1.0 - b) * x3 * y4, b * x4 * y3
        mc, mc_back = (1.0 - c) * x2 * y1, c * x1 * y2
        md, md_back = (1.0 - d) * x4 * y3, d * x3 * y4
        return (
            x1 - fa + fa_back,
            x2 - fa_back + fa,
            x3 - fb + fb_back,
            x4 - fb_back + fb,
            y1 - mc + mc_back,
            y2 - mc_back + mc,
            y3 - md + md_back,
            y4 - md_back + md,
        )

    def sub12_step(self, s: Point2) -> Point2:
        """Type-1/2 block: advance (x1, y1) inside the box [0,a0] x [0,c0]."""
        x, y = s
        a, c, a0, c0 = self.a, self.c, self.a0, self.c0
        return (
            x - (1.0 - a) * x * (c0 - y) + a * (a0 - x) * y,
            y - (1.0 - c) * (a0 - x) * y + c * x * (c0 - y),
        )


def mirror_params(p: FourTypeParams) -> FourTypeParams:
    """The parameter swap turning the type-3/4 block into the type-1/2 block."""
    return FourTypeParams(a=p.b, b=p.a, c=p.d, d=p.c, a0=1.0 - p.a0, c0=1.0 - p.c0)


def slice_sums(state: PopulationState) -> tuple[float, float, float, float]:
    """The four conserved pairwise sums (x1+x2, x3+x4, y1+y2, y3+y4)."""
    x, y = state.female.probs, state.male.probs
    return (x[0] + x[1], x[2] + x[3], y[0] + y[1], y[2] + y[3])


def lift_operator(p: FourTypeParams) -> BisexualOperator:
    """The 4x4-type operator as heredity tensors (uses a, b, c, d only).

    Every parent pair breeds true except the four mixed pairings within a
    block, which redistribute the offspring type inside the block.
    """
    pf = np.zeros((4, 4, 4))
    pm = np.zeros((4, 4, 4))
    for i in range(4):
        for k in range(4):
            pf[i, k, i] = 1.0
            pm[i, k, k] = 1.0
    for i, k in ((0, 1), (1, 0)):
        pf[i, k] = (p.a, 1.0 - p.a, 0.0, 0.0)
        pm[i, k] = (p.c, 1.0 - p.c, 0.0, 0.0)
    for i, k in ((2, 3), (3, 2)):
        pf[i, k] = (0.0, 0.0, p.b, 1.0 - p.b)
        pm[i, k] = (0.0, 0.0, p.d, 1.0 - p.d)
    return BisexualOperator.from_tensors(pf, pm)


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


def fixed_curve(p: FourTypeParams) -> Callable[[float], float]:
    """On the critical line a+c = 1: y as a function of x along the fixed curve."""

    def curve(x: float) -> float:
        return p.c * p.c0 * x / (p.a * p.a0 + (p.c - p.a) * x)

    return curve


@dataclass(frozen=True)
class SubsystemFixedPoints:
    """Fixed points of a planar subsystem: two isolated points, or a curve."""

    critical: bool
    points: tuple[Point2, ...]


def sub12_fixed_points(p: FourTypeParams, curve_samples: int = 11) -> SubsystemFixedPoints:
    """Fixed points of the type-1/2 block.

    Off the critical line these are exactly the corners (0, 0) and
    (a0, c0).  On it, every point of the curve y = c c0 x / (a a0 + (c-a) x)
    is fixed; it is returned as evenly sampled points (the curve passes
    through both corners).
    """
    if limit_branch(p)[0]:
        return SubsystemFixedPoints(critical=False, points=((0.0, 0.0), (p.a0, p.c0)))
    curve = fixed_curve(p)
    xs = np.linspace(0.0, p.a0, curve_samples)
    samples = tuple((float(x), float(curve(x))) for x in xs)
    return SubsystemFixedPoints(critical=True, points=samples)


def classify_sub12_fixed_points(
    p: FourTypeParams, tol: Tolerance = DEFAULT_TOLERANCE
) -> dict[Point2, FixedPointClass]:
    """Stability class of each fixed point of the type-1/2 block.

    Off the critical line the origin is attracting and (a0, c0) a saddle
    when a+c < 1, and vice versa when a+c > 1; on the line every curve
    point is non-hyperbolic (one unit eigenvalue).
    """
    fixed = sub12_fixed_points(p)
    return {
        pt: classify_fixed_point_2d(sub12_jacobian(p, pt), tol)
        for pt in fixed.points
    }


# ---------------------------------------------------------------------------
# Limit prediction on a slice.
# ---------------------------------------------------------------------------


def _side(total: float) -> int:
    """1 when a block's parameter sum lies above one, -1 below, 0 on its critical line."""
    return (total - 1.0 > CRITICAL_EPS) - (1.0 - total > CRITICAL_EPS)


# The types of a block that persist in the limit, by the block's side: the
# first type above the line, the second below it, both on it.
_BLOCK_TYPES = ({-1: "2", 0: "12", 1: "1"}, {-1: "4", 0: "34", 1: "3"})
_SURVIVOR_LABELS = {
    (s12, s34): "|".join(",".join(sex + t for t in t12 + t34) for sex in "fm")
    for s12, t12 in _BLOCK_TYPES[0].items()
    for s34, t34 in _BLOCK_TYPES[1].items()
}


def limit_branch(p: FourTypeParams) -> tuple[int, int]:
    """Sides of (a+c, b+d): 1 above one, -1 below, 0 on the critical line."""
    return (_side(p.a + p.c), _side(p.b + p.d))


def survivor_label(p: FourTypeParams) -> str:
    """Compact tag of which types persist in the predicted limit."""
    return _SURVIVOR_LABELS[limit_branch(p)]


def _block_limit(side: int, a: float, a0: float, c0: float, x: float, y: float):
    """Limit (x, a0 - x, y, c0 - y) of the type-1/2 block from its start (x, y).

    A corner off the critical line; on it, the fixed point on the line x+y = k
    of the start.  The type-3/4 block passes (b, 1-a0, 1-c0), as ``mirror_params``.
    """
    if side > 0:
        return a0, 0.0, c0, 0.0
    if side < 0:
        return 0.0, a0, 0.0, c0
    k = x + y
    root = critical_root(a, a0, c0, k)[0]
    return root, a0 - root, k - root, c0 - (k - root)


def predict_limit(
    p: FourTypeParams, state: PopulationState, tol: Tolerance = DEFAULT_TOLERANCE
) -> PopulationState:
    """Closed-form limit of the full operator from a non-fixed slice state.

    The slice sums of ``state`` must match the a0, c0 carried by the
    parameters.  Raises ``FixedPointInputError`` on a fixed starting state,
    which callers must treat as its own limit.
    """
    sums = slice_sums(state)
    if abs(sums[0] - p.a0) > tol.abs_eps or abs(sums[2] - p.c0) > tol.abs_eps:
        raise ValueError(
            f"state slice sums {sums[0]}, {sums[2]} disagree with a0={p.a0}, c0={p.c0}"
        )
    side12, side34 = limit_branch(p)
    coords = state.coords()
    if is_fixed(p.step, coords, tol):
        raise FixedPointInputError("the starting state is already fixed")
    x1, x2, y1, y2 = _block_limit(side12, p.a, p.a0, p.c0, coords[0], coords[4])
    x3, x4, y3, y4 = _block_limit(side34, p.b, 1.0 - p.a0, 1.0 - p.c0, coords[2], coords[6])
    return make_state((x1, x2, x3, x4), (y1, y2, y3, y4))


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

    def step(self, s: tuple[float]) -> tuple[float]:
        """The section map on 1-tuples, as the iteration engine expects."""
        return (critical_step(self, s[0]),)


def critical_step(cp: CriticalMapParams, x):
    """The section map x' = (2a-1) x^2 + ((1-a)(2-c0) - a a0) x + a a0.

    Maps [0, 1] into itself.  Accepts scalars or numpy arrays.
    """
    quad = 2.0 * cp.a - 1.0
    lin = (1.0 - cp.a) * (2.0 - cp.c0) - cp.a * cp.a0
    return quad * x * x + lin * x + cp.a * cp.a0


@dataclass(frozen=True)
class CriticalFixedPoints:
    """Fixed points of the section map.

    ``point`` is the unique fixed point inside [0, 1]; ``spurious`` is the
    second root of the quadratic, which always falls outside [0, 1] and is
    reported for diagnostics only (None in the affine case a = 1/2).
    """

    point: float
    spurious: float | None
    discriminant: float | None


def critical_root(a: float, a0: float, c0: float, k: float):
    """Where the line x+y = k meets the fixed curve of the type-1/2 block when c = 1-a.

    ``(inside, outside, discriminant)``: the root in [max(0, k-c0), min(a0, k)]
    of (2a-1) x^2 - K x + k a a0 = 0, K = k + a a0 - (1-a)(2k - c0), and the
    other root; at a = 1/2, k a0 / (a0 + c0), None and None.
    """
    quad = 2.0 * a - 1.0
    if abs(quad) <= AFFINE_EPS:
        return k * a0 / (a0 + c0), None, None
    # At k = 1.0 every operation is the section map's own, bit for bit.
    big_k = k + a * a0 - (1.0 - a) * (2.0 * k - c0)
    disc = big_k * big_k - 4.0 * a * a0 * quad * k
    root = math.sqrt(max(disc, 0.0))
    # Pair the additions by sign to avoid cancellation: the in-range root
    # carries -sign(K)*sqrt(D).
    if big_k >= 0.0:
        q = (big_k + root) / 2.0
        return (a * a0 * k) / q, q / quad, disc
    q = (big_k - root) / 2.0
    return q / quad, (a * a0 * k) / q, disc


def critical_fixed_points(cp: CriticalMapParams) -> CriticalFixedPoints:
    """Solve the fixed-point equation of the section map in closed form.

    The section map is the line x+y = 1 of ``critical_root``; the in-range
    root has derivative 1 - sqrt(D) there.
    """
    return CriticalFixedPoints(*critical_root(cp.a, cp.a0, cp.c0, 1.0))


def critical_slope(cp: CriticalMapParams) -> float:
    """Derivative of the section map at its in-range fixed point.

    Equals 1 - sqrt(D) in the quadratic case and 1 - (a0+c0)/2 in the
    affine case; its absolute value is below one for all valid parameters,
    so the fixed point is always attracting.
    """
    t = critical_fixed_points(cp).point
    return 2.0 * (2.0 * cp.a - 1.0) * t + (1.0 - cp.a) * (2.0 - cp.c0) - cp.a * cp.a0


def check_critical_start(x0: float) -> float:
    """The start itself; ``ValueError`` when it lies outside [0, 1]."""
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0={x0} lies outside [0, 1]")
    return x0


def predict_limit_critical(
    cp: CriticalMapParams, x0: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Every non-fixed point of [0, 1] converges to the in-range fixed point."""
    check_critical_start(x0)
    if is_fixed(cp.step, (x0,), tol):
        raise FixedPointInputError(f"x0={x0} is already the fixed point")
    return critical_fixed_points(cp).point
