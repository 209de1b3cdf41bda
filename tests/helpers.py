"""Reference helpers that only the tests use.

Random states, a state metric, uniform weights, parameters from cell
weights, the type-3/4 block step, the full operator Jacobian and a
brute-force periodic-point scan.  The package itself needs none of them.
"""

from typing import Callable, Sequence

import numpy as np

from qsobp.construction import BisexualOperator, ConfigurationSpace, WeightPair
from qsobp.dynamics import is_fixed
from qsobp.errors import DimensionMismatchError
from qsobp.four_types import FourTypeParams, mirror_params
from qsobp.simplex import DEFAULT_TOLERANCE, Distribution, PopulationState, make_distribution
from qsobp.two_types import TwoTypeParams


def state_distance(s1: PopulationState, s2: PopulationState) -> float:
    """Max-norm distance between two states over all coordinates."""
    if s1.dims != s2.dims:
        raise DimensionMismatchError(f"state dims {s1.dims} vs {s2.dims}")
    return max(abs(a - b) for a, b in zip(s1.coords(), s2.coords()))


def random_distribution(rng: np.random.Generator, dim: int) -> Distribution:
    """Uniform (flat Dirichlet) random point of the simplex."""
    return make_distribution(rng.dirichlet(np.ones(dim)))


def random_state(rng: np.random.Generator, n: int, nu: int) -> PopulationState:
    return PopulationState(random_distribution(rng, n), random_distribution(rng, nu))


def uniform_weights(space: ConfigurationSpace) -> WeightPair:
    return WeightPair({i: 1.0 for i in space.females}, {j: 1.0 for j in space.males})


def two_type_from_weights(female: Sequence[float], male: Sequence[float]) -> TwoTypeParams:
    """Parameters from positive cell weights: a = wf1/(wf1+wf2), b = wm1/(wm1+wm2)."""
    wf1, wf2 = female
    wm1, wm2 = male
    return TwoTypeParams(a=wf1 / (wf1 + wf2), b=wm1 / (wm1 + wm2))


def four_type_from_weights(
    female: Sequence[float], male: Sequence[float], a0: float, c0: float
) -> FourTypeParams:
    """Parameters from positive cell weights, pair by pair."""
    wf1, wf2, wf3, wf4 = female
    wm1, wm2, wm3, wm4 = male
    return FourTypeParams(
        a=wf1 / (wf1 + wf2),
        b=wf3 / (wf3 + wf4),
        c=wm1 / (wm1 + wm2),
        d=wm3 / (wm3 + wm4),
        a0=a0,
        c0=c0,
    )


def sub34_step(p: FourTypeParams, s):
    """Type-3/4 block, by delegation to the type-1/2 block under the swap."""
    return mirror_params(p).sub12_step(s)


def jacobian(op: BisexualOperator, state: PopulationState) -> np.ndarray:
    """Analytic Jacobian of the full coordinate map at ``state``.

    The map is quadratic, so the partials are linear:
    d x'_j / d x_i = sum_k pf[i,k,j] y_k, d x'_j / d y_k = sum_i pf[i,k,j] x_i,
    and likewise for the male block.  Rows are outputs (female block first),
    columns are inputs.
    """
    if state.dims != (op.n, op.nu):
        raise DimensionMismatchError(f"state dims {state.dims}, operator ({op.n},{op.nu})")
    x = np.array(state.female.probs)
    y = np.array(state.male.probs)
    pf, pm = op.tensors.pf, op.tensors.pm
    jxx = np.einsum("ikj,k->ji", pf, y)
    jxy = np.einsum("ikj,i->jk", pf, x)
    jyx = np.einsum("ikl,k->li", pm, y)
    jyy = np.einsum("ikl,i->lk", pm, x)
    return np.block([[jxx, jxy], [jyx, jyy]])


def scan_periodic_points(
    step: Callable,
    period: int,
    grid: int = 100_000,
    domain: tuple[float, float] = (0.0, 1.0),
    refine_eps: float = 1e-10,
) -> list[float]:
    """Roots of step^period(x) = x on the domain that are not fixed points.

    The composite map is evaluated by repeated application on a uniform
    grid (never expanded into polynomial coefficients), sign changes are
    bracketed and refined by bisection to ``refine_eps``, and a root that
    ``dynamics.is_fixed`` calls fixed under ``DEFAULT_TOLERANCE`` is
    dropped.  ``step`` must accept numpy arrays as well as scalars.
    """
    lo, hi = domain

    def composite(x):
        for _ in range(period):
            x = step(x)
        return x

    xs = np.linspace(lo, hi, grid)
    gap = composite(xs) - xs
    roots: list[float] = []
    for i in range(grid - 1):
        gi, gj = gap[i], gap[i + 1]
        if gi == 0.0:
            roots.append(float(xs[i]))
            continue
        if gi * gj >= 0.0:
            continue
        left, right = float(xs[i]), float(xs[i + 1])
        g_left = float(gi)
        while right - left > refine_eps:
            mid = 0.5 * (left + right)
            g_mid = float(composite(mid) - mid)
            if g_mid == 0.0:
                left = right = mid
                break
            if (g_left < 0.0) == (g_mid < 0.0):
                left, g_left = mid, g_mid
            else:
                right = mid
        roots.append(0.5 * (left + right))
    if gap[-1] == 0.0:
        roots.append(float(xs[-1]))
    return [r for r in roots if not is_fixed(lambda s: (step(s[0]),), (r,), DEFAULT_TOLERANCE)]
