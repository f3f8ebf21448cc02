"""The exact table of |Riem|^2 that ``curvature.riemann_norm_sq`` evaluates.

For a class-diagonal metric with class constants Y_k = g_aa / G_aa (a in
class k), each scheme's table gives

    |Riem|^2 = sum over rows  Y_0^e_0 Y_1^e_1 ... * (sum_j C_j z^m_j) / denominator,

with z = (n,) for scheme 1 and z = (p, q), q = n - p, for scheme 2.  A row
holds the exponents e of one Laurent monomial in Y and the integers C_j of
its coefficient over ``z_monomials`` (the m_j, negative powers included).
``live`` lists the class 4-tuples K = (k_d, k_c, k_a, k_b) whose term of
the class-level form is not identically zero.  ``riemann_norm_sq`` proves
the form that makes these few integers hold at every n and p, and
tests/test_riemann_table.py regenerates every one of them from f.

This module is read on the first Einstein verdict only: ``import
su_einstein.cli``, ``basis`` and a NOT-EINSTEIN ``check`` never load it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import getitem, mul, neg
from typing import NamedTuple


class Table(NamedTuple):
    z_monomials: tuple[tuple[int, ...], ...]
    denominator: int
    rows: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    live: tuple[tuple[int, int, int, int], ...]


# the classes: symmetric pairs, antisymmetric pairs, diagonal; z = (n,)
SCHEME1 = Table(
    z_monomials=((1,), (2,), (3,), (4,)),
    denominator=32,
    rows=(
        ((-4, 2, 0), (-60, 120, -75, 15)),
        ((-3, 0, 1), (16, -24, 8, 0)),
        ((-3, 1, 0), (-32, -24, 92, -36)),
        ((-3, 2, -1), (176, -264, 88, 0)),
        ((-2, -2, 2), (-80, 32, 48, 0)),
        ((-2, -1, 1), (48, 24, -72, 0)),
        ((-2, 0, 0), (144, -176, 4, 28)),
        ((-2, 1, -1), (16, 72, -88, 0)),
        ((-2, 2, -2), (-144, 128, 16, 0)),
        ((-1, -2, 1), (96, -48, -48, 0)),
        ((-1, -1, 0), (-32, -48, 80, 0)),
        ((-1, 0, -1), (-336, 408, -72, 0)),
        ((-1, 1, -2), (64, 0, -64, 0)),
        ((0, -2, 0), (-100, 136, -37, 1)),
        ((0, -1, -1), (-80, 24, 56, 0)),
        ((0, 0, -2), (160, -256, 96, 0)),
        ((1, -2, -1), (224, -240, 16, 0)),
        ((1, -1, -2), (64, 0, -64, 0)),
        ((2, -2, -2), (-144, 128, 16, 0)),
    ),
    live=((0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 1, 1), (0, 0, 2, 0), (0, 1, 0, 1), (0, 1, 1, 0),
          (0, 1, 1, 2), (0, 1, 2, 1), (0, 2, 0, 0), (0, 2, 0, 2), (0, 2, 1, 1), (0, 2, 2, 0),
          (1, 0, 0, 1), (1, 0, 1, 0), (1, 0, 1, 2), (1, 0, 2, 1), (1, 1, 0, 0), (1, 1, 0, 2),
          (1, 1, 1, 1), (1, 1, 2, 0), (1, 2, 0, 1), (1, 2, 1, 0), (1, 2, 1, 2), (1, 2, 2, 1),
          (2, 0, 0, 0), (2, 0, 0, 2), (2, 0, 1, 1), (2, 0, 2, 0), (2, 1, 0, 1), (2, 1, 1, 0),
          (2, 1, 1, 2), (2, 1, 2, 1)),
)

# the classes: su(p), su(q), the cross block, the balance line; z = (p, q)
SCHEME2 = Table(
    z_monomials=((-1, 1), (0, 0), (0, 2), (0, 4), (1, -1), (1, 1), (1, 3), (2, 0), (2, 2),
                 (3, 1), (4, 0)),
    denominator=4,
    rows=(
        ((-2, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 1)),
        ((0, -2, 0, 0), (0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0)),
        ((0, 0, -4, 2), (5, 10, 6, 0, 5, 12, 0, 6, 0, 0, 0)),
        ((0, 0, -3, 1), (0, 0, -24, 0, 0, -48, 0, -24, 0, 0, 0)),
        ((0, 0, -2, 0), (0, 0, 0, 0, 0, 8, 12, 0, 32, 12, 0)),
        ((0, 1, -4, 1), (0, -10, 10, 0, -10, 10, 0, 0, 0, 0, 0)),
        ((0, 1, -3, 0), (0, 0, 0, 0, 0, 12, -12, 24, -24, 0, 0)),
        ((0, 2, -4, 0), (0, 0, 0, 0, 5, -9, 4, -6, 6, 0, 0)),
        ((1, 0, -4, 1), (-10, -10, 0, 0, 0, 10, 0, 10, 0, 0, 0)),
        ((1, 0, -3, 0), (0, 0, 24, 0, 0, 12, 0, 0, -24, -12, 0)),
        ((1, 1, -4, 0), (0, 10, -10, 0, 0, 0, 0, -10, 10, 0, 0)),
        ((2, 0, -4, 0), (5, 0, -6, 0, 0, -9, 0, 0, 6, 4, 0)),
    ),
    live=((0, 0, 0, 0), (0, 0, 2, 2), (0, 2, 0, 2), (0, 2, 1, 2), (0, 2, 2, 0), (0, 2, 2, 1),
          (0, 2, 2, 3), (0, 2, 3, 2), (1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 0, 2), (1, 2, 1, 2),
          (1, 2, 2, 0), (1, 2, 2, 1), (1, 2, 2, 3), (1, 2, 3, 2), (2, 0, 0, 2), (2, 0, 1, 2),
          (2, 0, 2, 0), (2, 0, 2, 1), (2, 0, 2, 3), (2, 0, 3, 2), (2, 1, 0, 2), (2, 1, 1, 2),
          (2, 1, 2, 0), (2, 1, 2, 1), (2, 1, 2, 3), (2, 1, 3, 2), (2, 2, 0, 0), (2, 2, 1, 1),
          (2, 2, 2, 2), (2, 3, 0, 2), (2, 3, 1, 2), (2, 3, 2, 0), (2, 3, 2, 1), (2, 3, 2, 3),
          (2, 3, 3, 2), (3, 2, 0, 2), (3, 2, 1, 2), (3, 2, 2, 0), (3, 2, 2, 1), (3, 2, 2, 3),
          (3, 2, 3, 2)),
)

TABLES = {1: SCHEME1, 2: SCHEME2}


@lru_cache(maxsize=None)
def _plan(scheme: int, nonempty: tuple[bool, ...]) -> tuple:
    """What ``norm_sq`` adds up when the classes marked in ``nonempty`` have
    generators: the live 4-tuples of those classes; the z monomials of the
    rows kept, shifted by the most negative power of each z; the shift; the
    powers of a_k and of b_k in the common denominator, and their sums; and
    per row its coefficients and the powers of a_k and of b_k that put its
    monomial in Y = a / b over the common denominator."""
    table = TABLES[scheme]
    live = tuple(K for K in table.live if all(nonempty[k] for k in K))
    rows = [(e, c) for e, c in table.rows
            if all(nonempty[k] or not x for k, x in enumerate(e))]
    terms = [(m, c) for m, c in zip(table.z_monomials, zip(*(c for _, c in rows))) if any(c)]
    z_low = tuple(min([0] + [m[v] for m, _ in terms]) for v in range(len(terms[0][0])))
    z_powers = tuple(tuple(i - low for i, low in zip(m, z_low)) for m, _ in terms)
    classes = range(len(nonempty))
    low = [min([0] + [e[k] for e, _ in rows]) for k in classes]
    high = [max([0] + [e[k] for e, _ in rows]) for k in classes]
    plan_rows = tuple((tuple(c[row] for _, c in terms),
                       tuple(e[k] - low[k] for k in classes),
                       tuple(high[k] - e[k] for k in classes))
                      for row, (e, _) in enumerate(rows))
    return (live, z_powers, z_low, tuple(-v for v in low), tuple(high),
            tuple(h - v for h, v in zip(high, low)), plan_rows)


def norm_sq(scheme: int, z: tuple[int, ...], Y: list[float], nonempty: list[bool]) -> float:
    """|Riem|^2 from the table of ``scheme`` at z, correctly rounded, or inf.

    ``Y[k]`` is the positive finite class constant of class k, and
    ``nonempty[k]`` says whether class k has generators; the constant of an
    empty class is not read.  A row with a nonzero exponent on an empty
    class is left out (``riemann_norm_sq`` proves that this is exact), and
    so is a 4-tuple of ``live`` that holds one.

    The sum is formed exactly: every float Y_k is a ratio a_k / b_k of
    integers (b_k a power of two), and the rows are added over one common
    denominator in Python integers, whose one true division rounds correctly.  The result is inf
    where that quotient is too large for a float, and where a class weight
    Y_d / (Y_c Y_a Y_b) of a live 4-tuple is not a finite float (the
    domain of the form, as ``riemann_norm_sq`` says).
    """
    live, z_powers, z_low, a_top, b_top, span, rows = _plan(scheme, tuple(nonempty))
    for kd, kc, ka, kb in live:
        w = Y[kc] * Y[ka] * Y[kb]
        if w == 0.0 or Y[kd] / w == math.inf:
            return math.inf
    zp = [math.prod(map(pow, z, m)) for m in z_powers]
    # Y_k = a_k / b_k with b_k = 2^s_k, so the powers of b_k are one shift
    a, b = zip(*(y.as_integer_ratio() for y in Y))
    s = [v.bit_length() - 1 for v in b]
    a_pow = [[v ** j for j in range(top + 1)] for v, top in zip(a, span)]
    numerator = 0
    for coefficients, ea, eb in rows:
        term = sum(map(mul, coefficients, zp))
        if term:
            numerator += (term * math.prod(map(getitem, a_pow, ea))) << sum(map(mul, s, eb))
    denominator = (TABLES[scheme].denominator * math.prod(map(pow, z, map(neg, z_low)))
                   * math.prod(map(getitem, a_pow, a_top))) << sum(map(mul, s, b_top))
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf
