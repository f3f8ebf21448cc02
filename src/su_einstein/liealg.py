"""Generator bases for su(n) and their structure constants.

Two families of traceless Hermitian generator bases are built from the
elementary matrix units E_AB:

Scheme 1 splits su(n) into three classes: the m = n(n-1)/2 symmetric
off-diagonal combinations E_AB + E_BA, the m antisymmetric combinations
i(E_AB - E_BA), and n-1 diagonal generators obtained by applying the
product P*Q to the diagonal units E_AA, where Q is the usual orthonormal
"cascading" diagonal mix and P is a reflection that puts the diagonal
generators on a symmetric footing.  The last row of P*Q spans the u(1)
direction (a multiple of the identity) and is dropped.

Scheme 2 is adapted to the block decomposition SU(p) x SU(q) inside
SU(p+q): class 1 is a Scheme-1 basis of the upper su(p) block, class 2
the same for the lower su(q) block, class 3 holds the 2pq off-block
combinations, and class 4 is the single trace-balance generator
q*sum(E_aa, a<=p) - p*sum(E_bb, b>p), kept unnormalized.

Both schemes are written once (``_layout``), by index arithmetic: the class
of each generator, the pair generator E_AB + E_BA or i(E_AB - E_BA) of each
pair A < B, and the diagonal generators sum_A h_A E_AA with their rows h.
numpy materializes this layout for ``build_basis`` and sympy for
``exact_validate``, and the bracket rules read f off it.

Generators T_a are Hermitian, so the real structure constants are defined
through [T_a, T_b] = i f^c_ab T_c.  The basis is trace-orthogonal with Gram
matrix G_ab = Re tr(T_a T_b), so f^c_ab = 2 Im tr(T_a T_b T_c) / G_cc.  The
dual frame then obeys d sigma^c = -1/2 f^c_ab sigma^a ^ sigma^b.

f is built in one of two ways, which agree bit for bit:

* ``structure_constants_of(scheme, n, p)`` reads f off the class structure
  with the bracket rule of the matrix units,
  [E_AB, E_CD] = delta_BC E_AD - delta_DA E_CB.  Only two kinds of bracket
  survive: the pair generators of one triangle A < B < C, and a diagonal
  generator with the two generators of one pair (the proof is in its
  docstring).  No matrix is formed.  ``formed_structure_constants``, the f
  of every Einstein verdict, runs the same two rules on the lowered triples
  that hold a formed generator (the first of a class) only: O(n^2) entries,
  not O(n^3), and exactly those entries of all of f.
* ``structure_constants(basis)`` evaluates the trace on the given matrices'
  nonzero entries.  ``validate_basis`` uses it, since a basis handed in may
  differ from its layout, and the tests use it as the oracle of the rules.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .sparse import (CANCEL_RTOL, Nonzeros, blocks, check_key_range, join, row_major_order,
                     sum_by_key)

# Products per block of the Jacobi sum of ``_identity_deviations``.  A block
# peaks at about 280 bytes per product, 150 MB at this budget.
_JACOBI_PAIR_BUDGET = 2**19
# Largest deviation that ``validate_basis`` passes in each of its checks
VALIDATE_TOL = 1e-12


def class_sizes(scheme: int, n: int, p: int | None = None) -> tuple[int, ...]:
    """The number of generators in each class of the (scheme, n, p) basis, and
    the one check of a configuration: raises ValueError unless the scheme is 1
    or 2, n >= 2, scheme 1 has no p and scheme 2 has 0 <= p <= n.  su(0) and
    su(1) are empty, and so is the balance class unless p, q >= 1."""
    if scheme not in (1, 2):
        raise ValueError(f"unknown scheme {scheme}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if scheme == 1:
        if p is not None:
            raise ValueError(f"scheme 1 has no p, got p={p}")
        m = n * (n - 1) // 2
        return (m, m, n - 1)
    if p is None or not 0 <= p <= n:
        raise ValueError(f"scheme 2 needs a block size 0 <= p <= n, got p={p}, n={n}")
    q = n - p
    return (max(p * p - 1, 0), max(q * q - 1, 0), 2 * p * q, 1 if p >= 1 and q >= 1 else 0)


@dataclass(frozen=True)
class GeneratorBasis:
    """An ordered basis of traceless Hermitian n x n matrices with class labels.

    ``class_of[a]`` is the class index of generator ``a`` (0..2 for scheme 1,
    0..3 for scheme 2), and ``class_sizes(scheme, n, p)`` counts each class.
    The arrays are read-only; instances are safe to share.
    """

    n: int
    scheme: int
    p: int | None
    generators: np.ndarray  # (d, n, n) complex
    class_of: np.ndarray    # (d,) int

    def __post_init__(self):
        self.generators.flags.writeable = False
        self.class_of.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.generators.shape[0]


def _first_rows(sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """(first, size) of each nonempty class of the given sizes, in class order:
    its first generator, a running sum of ``sizes``, and its size."""
    return [(start, k) for start, k in zip(itertools.accumulate(sizes, initial=0), sizes) if k]


@dataclass(frozen=True)
class StructureConstants:
    """Real structure constants f^c_ab and Gram data of a generator basis.

    ``nonzeros`` holds the nonzero f^c_ab, the coefficient of T_c in
    -i [T_a, T_b], at index (c, a, b); entries that vanish are exact zeros
    and are not stored.  The context fields (scheme, n, p, class_of) are
    carried along so curvature code can be driven from this object alone.
    With ``formed_only`` (``formed_structure_constants``), ``nonzeros`` holds
    only the entries with a formed generator (``class_rows``) in some slot:
    what the Einstein fit reads, and not f.  A reader of all of f takes it
    through ``all_of_f``, which refuses such an object.
    """

    nonzeros: Nonzeros    # f^c_ab at (c, a, b), shape (d, d, d)
    gram_diag: np.ndarray  # (d,), the diagonal G_aa of the (diagonal) Gram matrix
    scheme: int
    n: int
    p: int | None
    class_of: np.ndarray
    formed_only: bool = False

    def __post_init__(self):
        self.gram_diag.flags.writeable = False
        self.class_of.flags.writeable = False

    def all_of_f(self) -> Nonzeros:
        """``nonzeros``, for a reader of all of f; raises ValueError when they
        hold only the entries of the formed rows (``formed_only``)."""
        if self.formed_only:
            raise ValueError("this f holds only the entries of the formed rows "
                             "(formed_structure_constants); all of f is structure_constants_of")
        return self.nonzeros

    @cached_property
    def f(self) -> np.ndarray:
        """Dense f[c, a, b], materialized from the nonzeros (d^3 floats: for
        tests, not for the engine)."""
        f = np.asarray(self.all_of_f())
        f.flags.writeable = False
        return f

    @cached_property
    def class_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, size): the first generator of each nonempty class and the
        size of that class, in class order (``_first_rows``).  The engine forms
        curvature rows only at these generators.  Raises ValueError unless
        ``class_of`` holds each class in one run, in class order, with the
        sizes ``class_sizes(scheme, n, p)``."""
        sizes = class_sizes(self.scheme, self.n, self.p)
        layout = np.arange(len(sizes)).repeat(sizes)
        if layout.shape != self.class_of.shape or (layout != self.class_of).any():
            raise ValueError(f"class_of is not the class layout {sizes} of "
                             f"scheme={self.scheme} n={self.n} p={self.p}")
        first, size = np.array(_first_rows(sizes)).T
        first.flags.writeable = False
        size.flags.writeable = False
        return first, size

    @property
    def d(self) -> int:
        """The dimension, one Gram entry per generator."""
        return self.gram_diag.size

    @property
    def num_classes(self) -> int:
        return len(class_sizes(self.scheme, self.n, self.p))


@dataclass(frozen=True)
class _Numbers:
    """The arithmetic a basis layout is written in."""

    dtype: type        # of the diagonal-mix arrays
    sqrt: Callable
    ratio: Callable    # ratio(a, b) = a / b
    i: object          # the imaginary unit


def _diag_mix_rows(k: int, num: _Numbers) -> np.ndarray:
    """Rows 1..k-1 of the product P*Q used to mix the k diagonal units.

    Q rows j < k are (1,...,1,-j,0,...,0)/sqrt(j(j+1)); row k is the u(1)
    direction (1,...,1)/sqrt(k).  P acts as (2/(k-1))*J - I on the first
    k-1 rows and as the identity on the last.  Only the first k-1 rows of
    P*Q are returned; the u(1) row is not an su(k) generator.
    """
    Q = np.zeros((k, k), dtype=num.dtype)
    for j in range(1, k):
        norm = num.sqrt(j * (j + 1))
        Q[j - 1, :j] = 1 / norm
        Q[j - 1, j] = -j / norm
    Q[k - 1, :] = 1 / num.sqrt(k)
    P = np.eye(k, dtype=num.dtype)
    P[: k - 1, : k - 1] = num.ratio(2, k - 1) - P[: k - 1, : k - 1]
    return (P @ Q)[: k - 1]


def _layout(scheme: int, n: int, p: int | None, num: _Numbers) -> tuple:
    """The generators of a basis in basis order, by index arithmetic, in four
    parts: ``class_of``, the class of each generator; ``(lo, hi)``, every pair
    A < B of indices in lexicographic order; ``pair_of``, where
    pair_of[kind, A, B] for A < B is the pair generator S_AB = E_AB + E_BA
    (kind 0) or A_AB = i(E_AB - E_BA) (kind 1), and d, past every generator,
    for A >= B; and ``(diag, h)``, the n - 1 diagonal generators
    sum_A h_A E_AA with their rows h of n coefficients.  Each block (scheme 1:
    all n indices; scheme 2: the first p, the last q, then the cross pairs of
    the two) holds S_AB for its pairs in lexicographic order, then A_AB for
    the same pairs, then the diagonal mixes of its indices; the balance
    generator of scheme 2 comes last.  Every array has O(n^2) entries.  numpy
    and sympy both materialize this one layout, and the bracket rules read f
    off it.  Raises ValueError on a bad configuration (``class_sizes``)."""
    sizes = class_sizes(scheme, n, p)
    d = sum(sizes)
    idx = np.arange(n)
    lo, hi = (idx[:, None] < idx).nonzero()
    # (the pairs of the block, a mask over every pair; the indices a..b it mixes)
    blocks = ([(None, 0, n)] if scheme == 1 else
              [(hi < p, 0, p), (lo >= p, p, n), ((lo < p) & (hi >= p), 0, 0)])
    pair_of = np.full((2, n, n), d)
    h = np.zeros((n - 1, n), dtype=num.dtype)
    diag = []
    start = 0
    for pairs, a, b in blocks:
        A, B = (lo, hi) if pairs is None else (lo[pairs], hi[pairs])
        pair_of[0, A, B] = np.arange(start, start + A.size)
        pair_of[1, A, B] = np.arange(start + A.size, start + 2 * A.size)
        start += 2 * A.size
        if b - a >= 2:
            h[len(diag):len(diag) + b - a - 1, a:b] = _diag_mix_rows(b - a, num)
            diag += range(start, start + b - a - 1)
            start += b - a - 1
    if scheme == 2 and sizes[3]:  # the balance generator
        h[-1, :p] = n - p
        h[-1, p:] = -p
        diag.append(start)
    class_of = np.arange(len(sizes)).repeat(sizes)
    return class_of, (lo, hi), pair_of, (np.array(diag, dtype=np.intp), h)


_FLOATS = _Numbers(float, math.sqrt, operator.truediv, 1j)
# The kinds (0: S, 1: A) of the sides (ab, bc, ac) of a triangle in its four
# patterns (S, S, A), (S, A, S), (A, S, S) and (A, A, A), and the imaginary
# part of each pattern's product
_KINDS = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1]])[:, :, None]
_TRIANGLE_IM = np.array([-1.0, 1.0, 1.0, 1.0])
# The three rotations (z, x, y), (x, y, z) and (y, z, x) of a lowered triple
_ROTATIONS = np.array([[2, 0, 1], [0, 1, 2], [1, 2, 0]])


def _generators(scheme: int, n: int, p: int | None,
                exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The layout materialized: the (d, n, n) generators, in complex floats or
    (``exact``) in sympy numbers in an object array, and their classes."""
    if exact:
        import sympy as sp

        num, dtype = _Numbers(object, sp.sqrt, sp.Rational, sp.I), object
    else:
        num, dtype = _FLOATS, complex
    class_of, (A, B), pair_of, (diag, h) = _layout(scheme, n, p, num)
    T = np.zeros((class_of.size, n, n), dtype=dtype)
    for kind, (up, down) in enumerate(((1, 1), (num.i, -num.i))):
        a = pair_of[kind, A, B]
        T[a, A, B] = up
        T[a, B, A] = down
    # every (i, i) entry of a diagonal generator, zeros included: a -0.0 of a
    # mix row is kept, and outside its block h holds the 0 that T starts with
    idx = np.arange(n)
    T[diag[:, None], idx, idx] = h
    return T, class_of


def build_basis(scheme: int, n: int, p: int | None = None) -> GeneratorBasis:
    """The basis of a (scheme, n, p) configuration, which ``class_sizes``
    checks; p is the scheme-2 block size, and scheme 1 takes no p.  The pairs
    A < B come in lexicographic order; a scheme-2 block of size 0 or 1 has no
    generators, and the balance class needs both blocks nonempty."""
    T, class_of = _generators(scheme, n, p)
    return GeneratorBasis(n=n, scheme=scheme, p=p, generators=T, class_of=class_of)


def build_scheme1_basis(n: int) -> GeneratorBasis:
    """``build_basis(1, n)``."""
    return build_basis(1, n)


def build_scheme2_basis(n: int, p: int) -> GeneratorBasis:
    """``build_basis(2, n, p)``."""
    return build_basis(2, n, p)


def structure_constants(basis: GeneratorBasis) -> StructureConstants:
    """Real f^c_ab of a given matrix basis, by the trace formula.

    The T_a are Hermitian, so tr([T_a, T_b] T_c) = 2i Im tr(T_a T_b T_c) and,
    for a trace-orthogonal basis, f^c_ab = 2 Im tr(T_a T_b T_c) / G_cc.  The
    trace is the sum of A_ij B_jk C_ki over entries that share matrix indices;
    a generator has at most n nonzero entries, so there are few such triples.
    Each such path adds its own term 2 Im(A_ij B_jk C_ki) / G_cc, and the terms
    are summed per (c, a, b); sums that cancel to rounding level are exact
    zeros and are not stored.  This checks a basis as given (``validate_basis``)
    and is the oracle of ``structure_constants_of``, which the engine uses.
    """
    n, d = basis.n, basis.dim
    gen, row, col = np.nonzero(basis.generators)
    val = basis.generators[gen, row, col]
    gram_diag = _gram_diagonal(d, n, gen, row, col, val)
    first, second = join(col, row)                          # A_ij B_jk
    pair, third = join(col[second] * n + row[first], row * n + col)  # ... C_ki
    first, second = first[pair], second[pair]
    c = gen[third]
    term = 2.0 * np.imag(val[first] * val[second] * val[third]) / gram_diag[c]
    live = term != 0.0
    key = np.ravel_multi_index((c[live], gen[first][live], gen[second][live]), (d, d, d))
    nonzeros = Nonzeros.from_sums((d, d, d), key, term[live])
    return StructureConstants(
        nonzeros=nonzeros,
        gram_diag=gram_diag,
        scheme=basis.scheme,
        n=basis.n,
        p=basis.p,
        class_of=basis.class_of.copy(),
    )


def structure_constants_of(scheme: int, n: int, p: int | None = None) -> StructureConstants:
    """f of the (scheme, n, p) basis from the bracket rule of the matrix units,
    bit for bit ``structure_constants(build_basis(scheme, n, p))``, without
    forming a matrix.

    **The brackets.**  Write S_AB = E_AB + E_BA and A_AB = i(E_AB - E_BA) for
    a pair A < B, and H = sum_A h_A E_AA for a diagonal generator (a diagonal
    mix, or the balance generator of scheme 2).  Every pair A < B of indices
    has one S and one A generator in both schemes.  With
    [E_AB, E_CD] = delta_BC E_AD - delta_DA E_CB, a product of three matrix
    units has a nonzero trace only where their indices close into a cycle
    i -> j -> k -> i.  A diagonal unit keeps the index and a pair unit moves
    it to the pair's other index, so a cycle holds

    * no diagonal unit: three pair units on the pairs of one triangle
      A < B < C.  This is the *triangle rule*: E_AB E_BC = E_AC gives
      [S_AB, S_BC] = -i A_AC and its like.  The trace runs along one cycle,
      and its product of three entries, each 1 or +-i, has an imaginary part
      only for an odd number of antisymmetric generators.  The lowered
      f_abc = 2 Im tr(T_a T_b T_c) is -2 at (S_AB, S_BC, A_AC) and +2 at
      (S_AB, A_BC, S_AC), (A_AB, S_BC, S_AC) and (A_AB, A_BC, A_AC).
    * one diagonal unit: then the two pair units go A -> B -> A on one pair.
      This is the *diagonal rule*: [H, E_AB] = (h_A - h_B) E_AB gives
      [H, S_AB] = -i (h_A - h_B) A_AB, and [S_AB, A_AB] = -2i (E_AA - E_BB).
      The lowered f of (H, S_AB, A_AB) is 2 h_B - 2 h_A, one term from the
      cycle through A and one through B.  (H, S_AB, S_AB) and (H, A_AB, A_AB)
      have real traces.
    * two diagonal units: the one pair unit cannot return, so there is no
      cycle.
    * three diagonal units: the trace is real.

    So no other bracket survives.  Each lowered triple gives all six
    permutations, signed, and f^c_ab = f_abc / G_cc.

    **Bit for bit.**  The trace formula adds one term 2 Im(product) / G_cc per
    cycle and sums the terms of each (c, a, b).  Every entry of the basis is
    real or imaginary, so each product is exactly +-1 or +-h_A, and each term
    is the same rounded quotient (2 (+-1)) / G_cc or (2 (+-h_A)) / G_cc that is
    formed here.  A triangle key has one term and a diagonal key two; adding
    two floats commutes, so the sum and the cancel test
    |t1 + t2| <= CANCEL_RTOL (|t1| + |t2|) of ``Nonzeros.from_sums`` come out
    the same.  A missing cycle (h_A = 0 is not a matrix entry) adds 0.0,
    which changes neither.  G_kk = sum_A h_A^2 is summed in ascending A, as
    the trace formula's ``bincount`` does; ``cumsum`` adds in that order.  The
    three generators of a lowered triple are distinct and no two triples share
    their set, so the keys (c, a, b) of all six permutations of all triples are
    distinct, and one sort puts them in the order of ``Nonzeros``.  The two
    rules run in ``_bracket_rules``, here with every generator in its set.
    """
    return _bracket_rules(scheme, n, p, formed_only=False)


def formed_structure_constants(scheme: int, n: int, p: int | None = None) -> StructureConstants:
    """The entries of ``structure_constants_of(scheme, n, p)`` that have a
    formed generator (``StructureConstants.class_rows``: the first generator of
    each class) in some slot, bit for bit and in the same order: every entry
    that the Einstein fit reads (``curvature._ricci_diagonal``).

    That is about 3.4 n^2 entries, against about 7 n^3 for all of f, and the
    build holds no array larger than O(n^2): the bracket rules of
    ``structure_constants_of`` expand only the lowered triples that hold a
    formed generator (``_bracket_rules``).  ``formed_only`` is set, so every
    reader of all of f refuses the result (``StructureConstants.all_of_f``).
    """
    return _bracket_rules(scheme, n, p, formed_only=True)


def _bracket_rules(scheme: int, n: int, p: int | None, formed_only: bool) -> StructureConstants:
    """f from the triangle and diagonal rules of ``structure_constants_of`` at
    the lowered triples that hold a generator of one set: every generator, or
    (``formed_only``) the first generator of each class.

    A pair A < B is *touched* when its S_AB or A_AB is in the set.  The
    triangle rule runs over the triangles with a touched side, each from the
    first of its sides AB, BC, AC that is touched, and keeps the patterns that
    hold a generator of the set.  The diagonal rule runs over (H, S_AB, A_AB)
    for every pair when H is in the set, and for every touched pair when it is
    not.  So each lowered triple that holds a generator of the set comes once,
    and no other: with every generator in the set, that is every triangle, from
    its side AB, and every H with every pair.  Each entry is formed from its
    own triple alone, the entries of distinct triples have distinct keys, and
    one sort puts them in the order of ``Nonzeros``: they are the entries of
    all of f whose keys hold a generator of the set, in the same order, with
    the same floats.  Every array holds O(n^2) entries where the set has O(1)
    generators.
    """
    class_of, (lo, hi), pair_of, (diag, h) = _layout(scheme, n, p, _FLOATS)
    d = class_of.size
    gram = np.full(d, 2.0)  # |1|^2 + |1|^2 = |i|^2 + |-i|^2 for a pair generator
    gram[diag] = (h * h).cumsum(axis=1)[:, -1]
    member = np.zeros(d + 1, dtype=bool)  # member[d] is False: pair_of's d of A >= B
    if formed_only:
        member[[start for start, _ in _first_rows(class_sizes(scheme, n, p))]] = True
    else:
        member[:d] = True
    touched = member[pair_of].any(axis=0)
    side = touched[lo, hi].nonzero()[0]

    # the lowered triples (x, y, z), with Im(T_x T_y T_z) of each one's one or
    # two cycles: first the triangles.  A touched side (A, B) and a third index
    # C make the triangle (A, B, C) with that side AB when C > B, (C, A, B) with
    # it BC when C < A, and (A, C, B) with it AC between them.  The four
    # patterns (S, S, A), (S, A, S), (A, S, S) and (A, A, A) on the sides
    # (ab, bc, ac) of each triangle are one gather into pair_of.
    A, B, C = lo[side, None], hi[side, None], np.arange(n)
    ta, tc = np.minimum(A, C), np.maximum(B, C)
    tb = A + B + C - ta - tc
    # from its first touched side: AB, else BC, else AC (C = A or C = B makes
    # no triangle: its AB or BC is then the touched side itself, and fails)
    k, t = ((C > B) | ~touched[ta, tb] & ((C < A) | ~touched[tb, tc])).nonzero()
    ta, tb, tc = ta[k, t], tb[k, t], tc[k, t]
    triangles = pair_of[_KINDS, np.array([ta, tb, ta])[:, None], np.array([tb, tc, tc])[:, None]]
    pattern, t = member[triangles].any(axis=0).nonzero()
    # then (H, S_AB, A_AB): each H in the set with every pair, each other H with
    # every touched pair
    inside = member[diag]
    H_in, H_out = inside.nonzero()[0], (~inside).nonzero()[0]
    r = np.concatenate([H_in.repeat(lo.size), H_out.repeat(side.size)])
    j = np.concatenate([np.arange(H_in.size * lo.size) % lo.size,
                        side[np.arange(H_out.size * side.size) % side.size]])
    A, B = lo[j], hi[j]
    xyz = np.empty((3, t.size + j.size), dtype=np.intp)
    xyz[:, :t.size] = triangles[:, pattern, t]
    xyz[0, t.size:] = diag[r]
    xyz[1:, t.size:] = pair_of[:, A, B]
    # Im of the one or two cycles: (-1 or 1, 0) for a triangle, (h_B, -h_A) for (H, S_AB, A_AB)
    im = np.zeros((2, xyz.shape[1]))
    im[0, :t.size] = _TRIANGLE_IM[pattern]
    im[0, t.size:] = h[r, B]
    im[1, t.size:] = -h[r, A]

    # f^c_ab with c each of x, y and z, in one pass over the three rotations:
    # (a, b) in cyclic order has the lowered triple's sign and the swapped order
    # the opposite one
    cab = xyz[_ROTATIONS].reshape(3, -1)
    t1, t2 = ((2.0 * im[:, None]) / gram[cab[0]].reshape(3, -1)).reshape(2, -1)
    total = t1 + t2
    live = (np.abs(total) > CANCEL_RTOL * (np.abs(t1) + np.abs(t2))).nonzero()[0]
    cab = cab.take(live, axis=1)
    # the six permutations: (c, a, b) with f, then (c, b, a) with -f
    index = np.concatenate([cab, cab[[0, 2, 1]]], axis=1)
    order = row_major_order(index, (d, d, d))
    total = total[live]
    nonzeros = Nonzeros((d, d, d), tuple(index.take(order, axis=1)),
                        np.concatenate([total, -total])[order])
    return StructureConstants(nonzeros=nonzeros, gram_diag=gram, scheme=scheme, n=n, p=p,
                              class_of=class_of, formed_only=formed_only)


def _gram_diagonal(d: int, n: int, gen, row, col, val) -> np.ndarray:
    """Diagonal of G_ab = Re tr(T_a T_b) from the entries; raises unless G is
    diagonal (up to rounding) and nonsingular."""
    left, right = join(row * n + col, col * n + row)
    key, total, scale = sum_by_key(gen[left] * d + gen[right],
                                   np.real(val[left] * val[right]))
    a, b = np.divmod(key, d)
    on_diag = a == b
    diag = np.zeros(d)
    diag[a[on_diag]] = total[on_diag]
    off = ~on_diag & (np.abs(total) > CANCEL_RTOL * scale)
    if np.any(off):
        gram = np.zeros(d * d)
        gram[key] = total
        if np.linalg.matrix_rank(gram.reshape(d, d)) < d:
            raise ValueError("Gram matrix is singular: generators are linearly dependent")
        raise ValueError("Gram matrix is not diagonal: the basis is not trace-orthogonal")
    if np.any(diag <= 0.0):
        raise ValueError("Gram matrix is singular: the basis has a zero generator")
    return diag


@dataclass
class BasisReport:
    """Diagnostic report produced by validate_basis."""

    n: int
    scheme: int
    p: int | None
    dim: int
    class_sizes: tuple[int, ...]
    hermiticity_dev: float
    trace_dev: float
    gram_diagonal: np.ndarray
    gram_offdiag_dev: float
    gram_min_eig: float
    f_antisymmetry_dev: float
    jacobi_dev: float
    lowered_antisymmetry_dev: float
    problems: list[str] = field(default_factory=list)
    sc: StructureConstants | None = None  # built while checking, if the Gram matrix allowed

    @property
    def passed(self) -> bool:
        return not self.problems

    def summary_lines(self) -> list[str]:
        lines = [
            f"generators: {self.dim} (n={self.n}, scheme {self.scheme}"
            + (f", p={self.p}" if self.p is not None else "")
            + ")",
            f"class sizes: {'/'.join(str(s) for s in self.class_sizes)}",
            f"hermiticity dev: {self.hermiticity_dev:.2e}",
            f"tracelessness dev: {self.trace_dev:.2e}",
            f"gram offdiag dev: {self.gram_offdiag_dev:.2e}  min eig: {self.gram_min_eig:.6g}",
            f"f antisymmetry dev: {self.f_antisymmetry_dev:.2e}",
            f"jacobi dev: {self.jacobi_dev:.2e}",
            f"lowered antisymmetry dev: {self.lowered_antisymmetry_dev:.2e}",
        ]
        for prob in self.problems:
            lines.append(f"FAIL: {prob}")
        lines.append("status: " + ("PASS" if self.passed else "FAIL"))
        return lines


def validate_basis(basis: GeneratorBasis) -> BasisReport:
    """Check Hermiticity, tracelessness, Gram structure and the f identities,
    each to ``VALIDATE_TOL``.

    Report only; never raises.  Used by the CLI and the test harness.
    """
    T = basis.generators
    problems: list[str] = []

    herm = float(np.abs(T - np.conj(np.transpose(T, (0, 2, 1)))).max())
    if herm > VALIDATE_TOL:
        problems.append(f"non-Hermitian generator (dev {herm:.2e})")
    trc = float(np.abs(np.einsum("aii->a", T)).max())
    if trc > VALIDATE_TOL:
        problems.append(f"generator with nonzero trace (dev {trc:.2e})")

    try:
        expected = class_sizes(basis.scheme, basis.n, basis.p)
    except ValueError as exc:
        problems.append(f"bad configuration: {exc}")
        expected = ()
    sizes = tuple(int(np.sum(basis.class_of == c)) for c in range(len(expected)))
    if sizes != expected:
        problems.append(f"class sizes {sizes} != expected {expected}")

    gram = np.real(np.einsum("aij,bji->ab", T, T))
    offdiag = float(np.abs(gram - np.diag(np.diag(gram))).max())
    if offdiag > VALIDATE_TOL:
        problems.append(f"Gram matrix not diagonal (dev {offdiag:.2e})")
    eigs = np.linalg.eigvalsh(gram)
    min_eig = float(eigs.min())
    if min_eig <= VALIDATE_TOL:
        problems.append(f"Gram matrix near-singular (min eig {min_eig:.2e})")

    f_anti = jacobi = low_anti = 0.0
    sc = None
    if min_eig > VALIDATE_TOL:
        try:
            sc = structure_constants(basis)
        except ValueError as exc:
            problems.append(f"no structure constants: {exc}")
    if sc is not None:
        f_anti, jacobi, low_anti = _identity_deviations(sc)
        if f_anti > VALIDATE_TOL:
            problems.append(f"f not antisymmetric (dev {f_anti:.2e})")
        if jacobi > VALIDATE_TOL:
            problems.append(f"Jacobi identity violated (dev {jacobi:.2e})")
        if low_anti > VALIDATE_TOL:
            problems.append(f"lowered f not totally antisymmetric (dev {low_anti:.2e})")

    return BasisReport(
        n=basis.n,
        scheme=basis.scheme,
        p=basis.p,
        dim=basis.dim,
        class_sizes=sizes,
        hermiticity_dev=herm,
        trace_dev=trc,
        gram_diagonal=np.diag(gram),
        gram_offdiag_dev=offdiag,
        gram_min_eig=min_eig,
        f_antisymmetry_dev=f_anti,
        jacobi_dev=jacobi,
        lowered_antisymmetry_dev=low_anti,
        problems=problems,
        sc=sc,
    )


def _identity_deviations(sc: StructureConstants) -> tuple[float, float, float]:
    """Largest violation of f^c_ab = -f^c_ba, of the Jacobi identity

        f^e_ab f^d_ec + f^e_bc f^d_ea + f^e_ca f^d_eb = 0,

    and of the total antisymmetry of f_abc = f^c_ab G_cc, from the nonzeros of f.

    Each left-hand side is a sum of key-joined entry products, so the result
    is the max-norm of the dense tensor without building it.  Every Jacobi
    key holds the output index d, so the Jacobi sum runs in blocks of d, each
    within ``_JACOBI_PAIR_BUDGET`` products where one d allows: a block joins
    only the entries (d, e, u) of its own d, its terms keep their relative
    order, and each of its sums is the one of the whole, bit for bit.  Raises
    ValueError when the Jacobi keys, d^4 of them, overflow int64, and on the f of
    ``formed_structure_constants``.
    """
    d = sc.d
    check_key_range(d, d, d, d)
    f = sc.all_of_f()
    c, a, b = f.index
    v = f.values

    def key(*idx):
        return np.ravel_multi_index(idx, (d,) * len(idx))

    def max_sum(values, *keys) -> float:
        """max |sum over equal keys|, with each value entered once per key array."""
        if not values.size:
            return 0.0
        total = sum_by_key(np.concatenate(keys), np.tile(values, len(keys)))[1]
        return float(np.abs(total).max())

    def jacobi_block(right) -> float:
        # every Jacobi term pairs an entry (e, s, t) with an entry (dd, e, u)
        i, j = join(c, a[right])
        j = right[j]
        s, t, u, dd = a[i], b[i], b[j], c[j]
        return max_sum(v[i] * v[j], key(s, t, u, dd), key(u, s, t, dd), key(t, u, s, dd))

    f_anti = max_sum(v, key(c, a, b), key(c, b, a))
    # products per output index: an entry (dd, e, u) pairs with every entry (e, ., .)
    pairs = np.bincount(c, weights=np.bincount(c, minlength=d)[a], minlength=d)
    jacobi = float(np.max([jacobi_block(np.flatnonzero((c >= lo) & (c < hi)))
                           for lo, hi in blocks(pairs, _JACOBI_PAIR_BUDGET)], initial=0.0))
    low = v * sc.gram_diag[c]  # f_abc at (a, b, c)
    low_anti = max(max_sum(low, key(a, b, c), key(b, a, c)),
                   max_sum(low, key(a, b, c), key(a, c, b)))
    return f_anti, jacobi, low_anti


# -- exact (symbolic) validation -------------------------------------------
#
# The diagonal-mix rows carry square roots, so "exact" arithmetic here means
# sympy's algebraic numbers rather than plain rationals.  Intended for small
# n (the symbolic commutator projections grow quickly).


def exact_validate(basis: GeneratorBasis) -> dict:
    """Symbolically exact check of the basis and f identities (small n only).

    Materializes the basis layout of (scheme, n, p) with sympy (the
    diagonal mixes carry square roots, so exact means algebraic numbers, not
    plain rationals) and verifies: that it matches the given generators and
    classes to 1e-14 (``matches_basis``), Hermiticity, zero trace,
    diagonality of the Gram matrix, that the projected f reproduce every
    commutator exactly, and total antisymmetry of the lowered tensor.  Exact
    commutator reproduction plus a nonsingular Gram implies the Jacobi
    identity for f (matrix brackets satisfy it identically), which is how the
    ``jacobi`` flag is derived; for d <= 8 the identity is additionally
    expanded term by term.  Cost grows steeply with d; meant for n <= 4.
    """
    import sympy as sp

    def is_zero(expr) -> bool:
        e = sp.expand(expr)
        return e == 0 or sp.simplify(e) == 0

    T, class_of = _generators(basis.scheme, basis.n, basis.p, exact=True)
    matches = (T.shape == basis.generators.shape
               and np.array_equal(class_of, basis.class_of)
               and bool(np.abs(T.astype(complex) - basis.generators).max() <= 1e-14))
    mats = [sp.Matrix(M) for M in T]
    d = len(mats)
    ok_herm = all(M == M.conjugate().T for M in mats)
    ok_trace = all(is_zero(sp.trace(M)) for M in mats)

    gram = sp.zeros(d, d)
    for a in range(d):
        for b in range(a, d):
            gram[a, b] = gram[b, a] = sp.simplify(sp.expand(sp.trace(mats[a] * mats[b])))
    ok_gram_diag = all(gram[a, b] == 0 for a in range(d) for b in range(a + 1, d))
    gram_diag = [gram[a, a] for a in range(d)]

    f: dict[tuple[int, int, int], object] = {}
    ok_commutators = True
    for a in range(d):
        for b in range(a + 1, d):
            comm = sp.expand(mats[a] * mats[b] - mats[b] * mats[a])
            coeffs = []
            for c in range(d):
                v = sp.simplify(sp.expand(sp.trace(-sp.I * comm * mats[c])) / gram[c, c])
                coeffs.append(v)
                if v != 0:
                    f[(c, a, b)] = v
            rebuilt = sp.expand(sp.I * sum((v * M for v, M in zip(coeffs, mats)), sp.zeros(basis.n, basis.n)))
            if not all(is_zero(comm[i, j] - rebuilt[i, j]) for i in range(basis.n) for j in range(basis.n)):
                ok_commutators = False

    def f_at(c, a, b):
        if a == b:
            return sp.Integer(0)
        if a < b:
            return f.get((c, a, b), sp.Integer(0))
        return -f.get((c, b, a), sp.Integer(0))

    def lowered(a, b, c):
        return f_at(c, a, b) * gram[c, c]

    ok_lowered = True
    for (c, a, b) in list(f):
        base = lowered(a, b, c)
        for (i, j, k), sign in (((b, c, a), 1), ((c, a, b), 1),
                                ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1)):
            if not is_zero(lowered(i, j, k) - sign * base):
                ok_lowered = False

    ok_jacobi = ok_commutators and ok_gram_diag
    if d <= 8:
        for a in range(d):
            for b in range(a + 1, d):
                for c in range(b + 1, d):
                    for dd in range(d):
                        s = sum(
                            f_at(e, a, b) * f_at(dd, e, c)
                            + f_at(e, b, c) * f_at(dd, e, a)
                            + f_at(e, c, a) * f_at(dd, e, b)
                            for e in range(d)
                        )
                        if not is_zero(s):
                            ok_jacobi = False

    return {
        "matches_basis": matches,
        "hermitian": ok_herm,
        "traceless": ok_trace,
        "gram_diagonal_exact": ok_gram_diag,
        "gram_diagonal": gram_diag,
        "commutators_reproduced": ok_commutators,
        "lowered_antisymmetric": ok_lowered,
        "jacobi": ok_jacobi,
        "all_passed": (matches and ok_herm and ok_trace and ok_gram_diag
                       and ok_commutators and ok_lowered and ok_jacobi),
    }
