"""Closed-form dynamics of the four-type bisexual population.

The operator on two 3-simplexes, which ``lift_operator`` builds by the construction
from the document ``construction_doc``, conserves the pairwise sums x1+x2, x3+x4,
y1+y2, y3+y4, so after one step every trajectory lives on a slice where these sums
are fixed constants (a0, 1-a0, c0, 1-c0).  On a slice the dynamics splits into two
independent planar blocks: the type-1/2 block in (x, y) = (x1, y1), and the type-3/4
block in (x3, y3), which is the first under the swap a<->b, c<->d, a0<->1-a0, c0<->1-c0.
``FourTypeParams.blocks`` records each block with the indices (f1, f2, m1, m2) of its
four types, and every per-block loop reads that record; ``block_state`` completes a
state from the blocks' points (x, y), giving f2 and m2 the rest of the box, a0-x and c0-y.

Each is a pair block, a ``PairBlock`` of the entries (u, beta, gamma, w) of its
Metzler matrix M = [[-u, beta], [gamma, -w]] and its box: one step moves (x, y)
in the box by M (P, R), P = x (c0 - y), R = (a0 - x) y.  Each case's parameters
give its blocks, from which its step, predictor, rates, Jacobian and fixed set
are read.  The type-1/2 block is (1-a, a, c, 1-c) on the box [0, a0] x [0, c0],
the type-3/4 block (1-b, b, d, 1-d) on the other, and ``two_types`` is the block
(0, a, 0, 1-b) on the unit square.  The type-1/2 block has det M = 1-a-c, so the
critical line a+c = 1 is det M = 0.  Off it the fixed points are the two
corners: every interior start goes to the corner ``pair_side`` names, and
``fixed_kind`` reads every fixed point's stability from the sign of det M.  On
the line the fixed points form a curve and x+y is conserved, and every start
goes to where its line x+y = k meets the curve, ``pair_point``.  The diagonal
section x+y = 1 is the block (1-a, a, 1-a, a), a one-dimensional quadratic
self-map of [0, 1] with a single attracting fixed point and no periodic orbits
of period two or more; its map and slope are that block's step and ``pair_rate``.

A block's Jacobian is nonnegative everywhere in its box, so at an attracting
corner its spectral radius rho is an eigenvalue with a left Perron vector
v >= 0 (Berman and Plemmons, *Nonnegative Matrices in the Mathematical
Sciences*, ch. 2).  Scaled so that its smaller entry is 1, v gives a norm
v.|z| of a distance z >= 0 from the corner that is at least its max norm.
Seen from the corner, which for (a0, c0) swaps both pairs' types, the step
is F(z) = J z - z_x z_y M (1, 1), J the Jacobian there, so with s = v.M (1, 1), v.(z - F(z)) = (1 - rho) v.z +
z_x z_y s, and v times the Jacobian at any point on the way to the corner is
at most rate v, rate = rho + max(0, -s) v.z.  Where that rate is below 1, the
next move m bounds the max-norm distance to the corner by v.|m| / (1 - rate),
and no later move is more than rate times the one before it in that norm
(``corner_bound``).  ``verify`` stops each four-type row on this bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING
import numpy as np

from .dynamics import predicted
from .simplex import DEFAULT_TOLERANCE, Tolerance, check_open_unit, check_unit
if TYPE_CHECKING:
    from .construction import BisexualOperator

# A pair block with |det M| within this distance of 0 is treated as critical.
CRITICAL_EPS = 1e-9
# A start of a block with |det M| at most this first runs to near the critical
# line's fixed curve and then creeps along it, so the corner's rate describes
# only its last steps: verify stops such rows on --iter-eps alone.
RATE_BAND = 1e-2
# A section map whose quadratic coefficient 2a-1 is this small is labelled affine.
AFFINE_EPS = 1e-12

Point2 = tuple[float, float]


@dataclass(frozen=True)
class PairBlock:
    """A pair block's entries of M and its box [0, a0] x [0, c0], numbers or (B,) arrays;
    it unpacks as (u, beta, gamma, w, a0, c0), the block functions' first arguments."""

    u: float
    beta: float
    gamma: float
    w: float
    a0: float
    c0: float

    def __iter__(self):
        return iter((self.u, self.beta, self.gamma, self.w, self.a0, self.c0))

    @property
    def det(self):
        return self.u * self.w - self.beta * self.gamma

    def step(self, s: Point2) -> Point2:
        """Advance (x, y) inside the box."""
        (x, y), (u, beta, gamma, w, a0, c0) = s, self
        return _pair_step(u, beta, gamma, w, x, a0 - x, y, c0 - y)[::2]


@dataclass(frozen=True)
class FourTypeParams:
    """Mixing probabilities a, b, c, d and slice sums a0, c0, all in (0, 1).

    ``a`` and ``c`` drive the type-1/2 block (daughters and sons of mixed 1-2
    pairings), ``b`` and ``d`` the type-3/4 block; ``a0`` and ``c0`` are the
    conserved female and male first-pair totals of the slice under study.
    """

    a: float
    b: float
    c: float
    d: float
    a0: float
    c0: float

    def __post_init__(self):
        check_open_unit(self)

    def rates(self) -> tuple:
        """(u, beta, gamma, w) of each block, which ``step`` reads without building one."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return (1.0 - a, a, c, 1.0 - c), (1.0 - b, b, d, 1.0 - d)

    @property
    def blocks(self) -> tuple:
        """The type-1/2 and the type-3/4 ``PairBlock``, each with the indices (f1, f2, m1, m2)
        of its four types among (x1..x4, y1..y4): (0, 1, 4, 5) and (2, 3, 6, 7)."""
        (r12, r34), a0, c0 = self.rates(), self.a0, self.c0
        return ((PairBlock(*r12, a0, c0), (0, 1, 4, 5)),
                (PairBlock(*r34, 1.0 - a0, 1.0 - c0), (2, 3, 6, 7)))

    def step(self, coords: tuple) -> tuple:
        """One step on bare coordinates (x1..x4, y1..y4); pairwise sums conserved."""
        x1, x2, x3, x4, y1, y2, y3, y4 = coords
        (u, beta, gamma, w), (u34, beta34, gamma34, w34) = self.rates()
        x1, x2, y1, y2 = _pair_step(u, beta, gamma, w, x1, x2, y1, y2)
        x3, x4, y3, y4 = _pair_step(u34, beta34, gamma34, w34, x3, x4, y3, y4)
        return (x1, x2, x3, x4, y1, y2, y3, y4)


def _pair_step(u, beta, gamma, w, x1, x2, y1, y2):
    """One step of a pair block's female pair (x1, x2) and male pair (y1, y2).  The
    pairings (1, 1) and (2, 2) breed true; (type-1 mother, type-2 father) has type-2
    daughters with probability ``u`` and type-1 sons with ``gamma``, (type-2 mother,
    type-1 father) type-1 daughters with ``beta`` and type-2 sons with ``w``.  With
    x = x1, y = y1, P = x1 y2 and R = x2 y1 the step is (x, y) + M (P, R),
    M = [[-u, beta], [gamma, -w]]."""
    # The offspring mass each mixed pairing moves between the two types.
    fa, fa_back = u * x1 * y2, beta * x2 * y1
    mc, mc_back = w * x2 * y1, gamma * x1 * y2
    return (x1 - fa + fa_back, x2 - fa_back + fa, y1 - mc + mc_back, y2 - mc_back + mc)


def pair_jacobian(u, beta, gamma, w, a0, c0, x, y):
    """Jacobian of a pair block's step on the box [0, a0] x [0, c0] at (x, y):
    I + M G, where G = [[c0 - y, -x], [-y, a0 - x]] is the Jacobian of (P, R).
    On (B,) arrays x, y it is (2, 2, B)."""
    px, py, rx, ry = c0 - y, -x, -y, a0 - x
    return np.array([[1.0 - u * px + beta * rx, beta * ry - u * py],
                     [gamma * px - w * rx, 1.0 + gamma * py - w * ry]])


def pair_rate(u, beta, gamma, w, a0, c0, x, y):
    """The rate at which a pair block's starts close in on its fixed point (x, y), and
    the left Perron vector (v0, v1) of its ``pair_jacobian`` J there, scaled so that
    its smaller entry is 1.

    J is nonnegative, so its spectral radius rho is an eigenvalue, and the rate is rho.
    Within ``CRITICAL_EPS`` of det M = 0, J at a point of the fixed curve has the
    eigenvalue 1 along the curve, and the rate is the other one, its trace minus 1.
    v is rho's, from whichever of (rho - J11, J01) and (J10, rho - J00) adds no terms
    of opposite sign."""
    (j00, j01), (j10, j11) = pair_jacobian(u, beta, gamma, w, a0, c0, x, y)
    # Off the box J may have a negative entry; rho and v are then NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * (j00 - j11)
        root = np.hypot(half, np.sqrt(j01 * j10))  # j01 j10 >= 0: both eigenvalues are real
        rho = 0.5 * (j00 + j11) + root
        v0, v1 = np.where(half >= 0.0, (root + half, j01), (j10, root - half))
        low = np.minimum(v0, v1)
        v = (v0 / low, v1 / low)
    return np.where(pair_side(u * w - beta * gamma), rho, j00 + j11 - 1.0), v


def corner_rate(u, beta, gamma, w, a0, c0):
    """A pair block's det M, computed from its entries, and its ``pair_rate`` at the
    corner the sign of det M makes attracting: (0, 0) when det M > 0, (a0, c0) when
    det M < 0.  Its rho is NaN where ``pair_side`` names no corner."""
    det = u * w - beta * gamma
    top = det < 0.0
    rho, v = pair_rate(u, beta, gamma, w, a0, c0, top * a0, top * c0)
    return det, np.where(pair_side(det) != 0, rho, np.nan), v


def corner_bound(u, beta, gamma, w, a0, c0, x, y):
    """A certified rate of a pair block at (x, y) and its next two moves, in the Perron
    norm of its attracting corner (see the module docstring): (rate, m1, m2); NaN rate
    where ``corner_rate`` gives no rho.  The block steps from the corner, and the second
    move is the Jacobian at the middle of the first times it, which the quadratic step
    makes exact, so m2 / m1 keeps its digits where the moves are far below the state."""
    det, rho, (v0, v1) = corner_rate(u, beta, gamma, w, a0, c0)
    top = det < 0.0
    # The block seen from (a0, c0) is the block with both pairs' types swapped.
    seen = [np.where(top, b, a) for a, b in ((u, beta), (beta, u), (gamma, w), (w, gamma))]
    zx, zy = np.abs(x - top * a0), np.abs(y - top * c0)
    nx, _, ny, _ = _pair_step(*seen, zx, a0 - zx, zy, c0 - zy)
    mx, my = nx - zx, ny - zy
    (j00, j01), (j10, j11) = pair_jacobian(*seen, a0, c0, zx + 0.5 * mx, zy + 0.5 * my)
    first = v0 * np.abs(mx) + v1 * np.abs(my)
    second = v0 * np.abs(j00 * mx + j01 * my) + v1 * np.abs(j10 * mx + j11 * my)
    s = v0 * (seen[1] - seen[0]) + v1 * (seen[2] - seen[3])  # v.M(1, 1), M the seen block's
    return rho + np.maximum(0.0, -s) * (v0 * zx + v1 * zy), first, second


def pair_side(det):
    """The corner that draws a pair block's interior starts, by its det M = u w - beta
    gamma: 1 for (a0, c0) when det M < 0, -1 for (0, 0) when det M > 0, and 0 within
    ``CRITICAL_EPS`` of det M = 0, where each start keeps its line w x + beta y."""
    return (det < -CRITICAL_EPS) * 1 - (det > CRITICAL_EPS)


def fixed_kind(block: PairBlock, point: Point2) -> str:
    """The stability class of ``point``, one of a pair block's ``fixed_points``.  Within
    ``pair_side``'s band every one is non-hyperbolic.  Off it the corner that ``pair_side``
    names attracts, and the other is a saddle: there J - I = M G has the determinant
    -a0 c0 |det M| and a negative trace, so J has an eigenvalue on each side of 1, both
    above -1 as J's entries lie in [0, 1]."""
    side = pair_side(block.det)
    if not side:
        return "non_hyperbolic"
    return "attracting" if (point[0] > 0.0) == (side > 0) else "saddle"  # (a0, c0) or (0, 0)


def _root(q, b, c, sqrt_disc):
    """The root (sqrt_disc - b) / 2q of q t^2 + b t = c, sqrt_disc^2 = b^2 + 4qc, in the
    form that adds no terms of opposite sign; 0 where b = 0 and q has underflowed to 0
    (a rate below about 1e-154 at a corner), where that form is 0 / 0."""
    root = np.where(b > 0.0, 2.0 * c / (b + sqrt_disc), (sqrt_disc - b) / (2.0 * q))
    return np.where((q == 0.0) & (b == 0.0), 0.0, root)


def pair_point(u, beta, w, a0, c0, level):
    """Where the line w x + beta y = ``level`` meets the fixed set
    u x (c0-y) = beta (a0-x) y of a pair block on det M = 0, with beta in (0, 1]
    and w in (0, 1]; not clipped to the box [0, a0] x [0, c0].

    y and a0 - x are each the root of their own quadratic, with the shared
    discriminant (p - s - d level)^2 + 4ps, taken as a ``hypot`` so that no square
    underflows, and at u = 0, where the fixed set is the edges y = 0 and x = a0, a
    point on either has that coordinate exactly.  Each argument is a number or an
    array; rows outside the ranges may be NaN."""
    d, s, p = beta - u, u * c0 * beta, beta * a0 * w
    rest = w * a0 + beta * c0 - level  # the line's level below the corner (a0, c0)
    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_disc = np.hypot(p - s - d * level, 2.0 * np.sqrt(p) * np.sqrt(s))
        y = _root(d * beta, s + p - d * level, u * c0 * level, sqrt_disc)
        gap = _root(d * w, beta * c0 * beta + u * a0 * w - d * rest, u * a0 * rest, sqrt_disc)
    return a0 - gap, y


def pair_limit(u, beta, gamma, w, a0, c0, x, y):
    """The limit of a pair block from the start (x, y) in the box [0, a0] x [0, c0]: the
    corner ``pair_side`` names, or on det M = 0 the start line's ``pair_point``, clipped."""
    side = pair_side(u * w - beta * gamma)
    point = pair_point(u, beta, w, a0, c0, w * x + beta * y)
    return tuple(np.where(side, (side > 0) * top, np.clip(v, 0.0, top))
                 for v, top in zip(point, (a0, c0)))


def slice_sums(coords) -> tuple:
    """The four conserved pairwise sums (x1+x2, x3+x4, y1+y2, y3+y4) of the
    coordinates (x1..x4, y1..y4), each a number or a (B,) array."""
    x1, x2, x3, x4, y1, y2, y3, y4 = coords
    return (x1 + x2, x3 + x4, y1 + y2, y3 + y4)


def block_state(blocks, points, d: int) -> list:
    """The d coordinates of the state at which each of the ``blocks``, a record as
    ``FourTypeParams.blocks`` gives it, sits at its (x, y) of ``points``: x at its f1 and
    y at its m1, and the rest of its box, a0 - x and c0 - y, at its f2 and m2."""
    state = [None] * d
    for (block, (f1, f2, m1, m2)), (x, y) in zip(blocks, points):
        state[f1], state[f2], state[m1], state[m2] = x, block.a0 - x, y, block.c0 - y
    return state


def construction_doc(p: FourTypeParams) -> dict:
    """The four-type operator's construction document (a, b, c, d only), which ``construct
    --input`` reads: females are cells 1, 3, 6, 8 (x1..x4), weighted (a, 1-a, b, 1-b), males
    cells 2, 4, 5, 7 (y1..y4), weighted (c, 1-c, d, 1-d).  A block's two mixed pairings have
    daughters by (beta, u) and sons by (gamma, w); all other pairs breed true."""
    return {"vertices": 3, "edges": [[1, 2]], "alleles": 2, "females": [1, 3, 6, 8],
            "female_weights": {"1": p.a, "3": 1.0 - p.a, "6": p.b, "8": 1.0 - p.b},
            "male_weights": {"2": p.c, "4": 1.0 - p.c, "5": p.d, "7": 1.0 - p.d}}


def lift_operator(p: FourTypeParams) -> BisexualOperator:
    """The 4x4-type operator, the construction's from the document ``construction_doc(p)``."""
    from .construction import build_operator, construction_from_json
    return build_operator(*construction_from_json(construction_doc(p)))


# ---------------------------------------------------------------------------
# The two decoupled planar subsystems on a slice.
# ---------------------------------------------------------------------------


def fixed_points(block: PairBlock, x=None) -> tuple[Point2, ...]:
    """A pair block's fixed points in increasing x: off det M = 0 the corners; on it 11
    points, evenly spaced in x over [0, a0], of the curve u x (c0-y) = beta (a0-x) y, the
    block's first row.  Given ``x``, a number or an array, the curve's points at x.

    On the face u = 0 the curve is the edge y = 0, and (a0, 0) is its point at x = a0;
    there the edge x = a0 is fixed too, and it is not sampled."""
    u, beta, _, _, a0, c0 = block
    if x is None and pair_side(block.det):
        return ((0.0, 0.0), (a0, c0))
    x = np.linspace(0.0, a0, 11) if x is None else np.atleast_1d(x)
    num, den = u * c0 * x, beta * a0 + (u - beta) * x  # den is 0 only where num is
    y = np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den != 0.0)
    return tuple(zip(x.tolist(), y.tolist()))


# The types of a block that persist in the limit, by the block's side: the
# first type above the line, the second below it, both on it.
_BLOCK_TYPES = ({-1: "2", 0: "12", 1: "1"}, {-1: "4", 0: "34", 1: "3"})
SURVIVOR_LABELS = tuple(
    "|".join(",".join(sex + t for t in t12 + t34) for sex in "fm")
    for t12 in _BLOCK_TYPES[0].values()
    for t34 in _BLOCK_TYPES[1].values()
)


def survivor_code(p: FourTypeParams):
    """Index into ``SURVIVOR_LABELS`` of which types persist in the predicted limit, by
    the blocks' ``pair_side``: 1 above their critical line, -1 below, 0 on it."""
    side12, side34 = (pair_side(block.det) for block, _ in p.blocks)
    return 3 * side12 + side34 + 4


def predict_limit(p: FourTypeParams, starts, tol: Tolerance = DEFAULT_TOLERANCE):
    """Closed-form limits of the full operator from the (B, 8) slice ``starts``, as
    ``dynamics.predicted`` returns them; ``p`` may be stacked.  ``ValueError`` when a
    start's slice sums miss its a0, c0.  Each limit is a state: ``pair_limit`` clips
    each block's point into its box, and each pair is completed by a difference from
    its box side, so no entry is negative and each block total is one to a few ulps."""
    coords = np.asarray(starts, dtype=float).T
    sums = slice_sums(coords)
    off = (np.abs(sums[0] - p.a0) > tol.abs_eps) | (np.abs(sums[2] - p.c0) > tol.abs_eps)
    if off.any():
        raise ValueError(f"the slice sums of start {np.argmax(off)} miss its a0, c0")
    blocks = p.blocks

    def limits():
        points = [pair_limit(*block, coords[f1], coords[m1]) for block, (f1, _, m1, _) in blocks]
        return block_state(blocks, points, len(coords))

    return predicted(p, coords, limits, tol)


def stop_rate(p: FourTypeParams, starts):
    """The rate bound q and the norm factor kappa of each of the (B, 8) ``starts``, from
    which ``verify`` fixes the row's threshold: q is the largest of its blocks'
    ``corner_rate`` rho, NaN where a block's |det M| is at most ``RATE_BAND``, and kappa
    the largest of their v0 + v1, the most by which a move's Perron norm exceeds its max
    norm.  Neither depends on the start: off the band every start goes to the corner."""
    det, rho, v = map(np.array, zip(*(corner_rate(*block) for block, _ in p.blocks)))
    rate = np.max(np.where(np.abs(det) > RATE_BAND, rho, np.nan), axis=0)
    return np.broadcast_to(rate, len(starts)), np.max(np.sum(v, axis=1), axis=0)


def certificate(p: FourTypeParams, starts, end):
    """(rate, observed_rate, error_bound) of the rows that ended at the columns of the
    (8, B) ``end``, from ``corner_bound`` of each block: the largest rate, the ratio of
    the next two moves summed over the blocks, which is at most that rate, and the
    largest m1 / (1 - rate), which bounds the max-norm distance to the limit.  The
    rate is NaN where a block has none or where it is not below 1."""
    rates, firsts, seconds = map(np.array, zip(*(corner_bound(*block, end[f1], end[m1])
                                                 for block, (f1, _, m1, _) in p.blocks)))
    rate = np.max(np.where(rates < 1.0, rates, np.nan), axis=0)
    first = np.sum(firsts, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        observed = np.where(first > 0.0, np.sum(seconds, axis=0) / first, 0.0)
        bound = np.max(firsts / (1.0 - rates), axis=0)
    return rate, observed, bound


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
    def block(self) -> PairBlock:
        """The section block (1-a, a, 1-a, a), exactly on det M = 0 for every a."""
        return PairBlock(1.0 - self.a, self.a, 1.0 - self.a, self.a, self.a0, self.c0)

    @property
    def point(self):
        """x where x+y = 1 (w x + beta y = beta) meets the fixed curve, not clipped."""
        u, beta, _, w, a0, c0 = self.block
        return pair_point(u, beta, w, a0, c0, beta)[0]

    @property
    def is_affine(self) -> bool:
        # The quadratic coefficient 2a-1 vanishes at a = 1/2.
        return abs(2.0 * self.a - 1.0) <= AFFINE_EPS

    def step(self, s: tuple) -> tuple:
        """The section map x' = (2a-1) x^2 + ((1-a)(2-c0) - a a0) x + a a0 on 1-tuples:
        the section ``block``'s step at (x, 1-x).

        Maps [0, 1] into itself; the coordinate is a number or a numpy array.
        """
        (x,) = s
        return (self.block.step((x, 1.0 - x))[0],)


def critical_fixed_points(cp: CriticalMapParams):
    """The section map's ``(point, spurious, discriminant)``: the roots of its fixed-point
    equation (2a-1) x^2 - K x + a a0 = 0, K = 1 + a a0 - (1-a)(2 - c0), and its D.

    ``point``, the one in [0, 1] with derivative 1 - sqrt(D), is where x+y = 1 meets
    the fixed curve, ``pair_point``; it lies outside the box [0, a0] x [0, c0] when
    a0 + c0 < 1.  ``spurious`` lies outside [0, 1].  Both others are None at a = 1/2.
    """
    point = float(cp.point)
    if cp.is_affine:
        return point, None, None
    quad, big_k = 2.0 * cp.a - 1.0, 1.0 + cp.a * cp.a0 - (1.0 - cp.a) * (2.0 - cp.c0)
    # The roots' product is a a0 / (2a-1).
    return point, cp.a * cp.a0 / (quad * point), big_k * big_k - 4.0 * cp.a * cp.a0 * quad


def critical_slope(cp: CriticalMapParams) -> float:
    """Derivative of the section map at its in-range fixed point t: 1 - sqrt(D), and
    1 - (a0+c0)/2 in the affine case.  On det M = 0 the block's ``pair_jacobian`` at
    (t, 1-t) has the eigenvalues 1 and this slope, so it is the block's ``pair_rate``
    there.  It lies inside (-1, 1) for all valid parameters: the fixed point always
    attracts."""
    t = critical_fixed_points(cp)[0]
    return float(pair_rate(*cp.block, t, 1.0 - t)[0])


def predict_limit_critical(cp: CriticalMapParams, starts, tol: Tolerance = DEFAULT_TOLERANCE):
    """Every non-fixed point of [0, 1] converges to the in-range fixed point, as in
    ``critical_fixed_points``: the (B, 1) limits of the (B, 1) ``starts`` with the masks
    of ``dynamics.predicted``; ``cp`` may be stacked (B,) arrays."""
    coords = check_unit(np.asarray(starts, dtype=float), "[0, 1]").T
    return predicted(cp, coords, lambda: (cp.point,), tol)
