"""Exact fixed sets of the paper's cases, as Gröbner bases over Q(a, b, c, d).

Each case's pair blocks, built by its parameters class from symbolic rates,
are stepped by ``four_types._pair_step`` in sympy.  A state is fixed exactly
when every step leaves its coordinates unchanged, and the reduced Gröbner
basis of those equations states the fixed set without rounding:
  - two-type, the block (0, a, 0, 1-b): {x2 y1}, the segment y = 0 and the
    edge x = 1
  - four-type, generic a, b, c, d: {x1 y2, x2 y1, x3 y4, x4 y3}, the faces on
    which no mixed pairing meets
  - four-type on a + c = 1: {x2 y1 + (a-1)/a x1 y2, x3 y4, x4 y3}, the
    type-1/2 block's fixed curve beside the type-3/4 block's faces
"""

import sympy as sp

from qsobp.four_types import FourTypeParams, _pair_step
from qsobp.two_types import TwoTypeParams

a, b, c, d, a0, c0 = sp.symbols("a b c d a0 c0")
X = sp.symbols("x1:5")
Y = sp.symbols("y1:5")
STATE = (*X, *Y)  # (x1..x4, y1..y4), the coordinates the four-type blocks index
# y before x, so that on a + c = 1 the curve's basis element leads with x2 y1.
GENS = (*Y, *X)
FIELD = sp.QQ.frac_field(a, b, c, d)


def symbolic(kind, **values):
    """Parameters of ``kind`` holding sympy expressions, set without its range check."""
    p = object.__new__(kind)
    p.__dict__.update(values)
    return p


def fixed_set_basis(pairs):
    """The reduced lex Gröbner basis of the fixed-point equations of the ``pairs``, each a
    block and its (x1, x2, y1, y2), as a set of expressions."""
    equations = []
    for block, coords in pairs:
        u, beta, gamma, w, _, _ = block
        moved = _pair_step(u, beta, gamma, w, *coords)
        equations += [sp.nsimplify(sp.expand(n - o), rational=True) for n, o in zip(moved, coords)]
    basis = sp.groebner([e for e in equations if e != 0], *GENS, order="lex", domain=FIELD)
    return set(basis.exprs)


def four_type_pairs(p):
    return [(block, tuple(STATE[i] for i in at)) for block, at in p.blocks]


def test_the_two_type_fixed_set_is_the_segment_and_the_edge():
    (block, _), = symbolic(TwoTypeParams, a=a, b=b).blocks
    assert fixed_set_basis([(block, (X[0], X[1], Y[0], Y[1]))]) == {X[1] * Y[0]}


def test_the_generic_four_type_fixed_set_is_the_faces_without_mixed_pairings():
    p = symbolic(FourTypeParams, a=a, b=b, c=c, d=d, a0=a0, c0=c0)
    x1, x2, x3, x4 = X
    y1, y2, y3, y4 = Y
    assert fixed_set_basis(four_type_pairs(p)) == {x1 * y2, x2 * y1, x3 * y4, x4 * y3}


def test_on_a_plus_c_one_the_type_12_fixed_set_is_its_curve():
    p = symbolic(FourTypeParams, a=a, b=b, c=1 - a, d=d, a0=a0, c0=c0)
    x1, x2, x3, x4 = X
    y1, y2, y3, y4 = Y
    curve = x2 * y1 + (a - 1) / a * x1 * y2
    assert fixed_set_basis(four_type_pairs(p)) == {curve, x3 * y4, x4 * y3}
