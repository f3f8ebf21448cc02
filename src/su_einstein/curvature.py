"""Curvature of class-diagonal left-invariant metrics from structure constants.

A left-invariant metric that assigns one constant to each generator class is
represented in the frame by the diagonal g_aa = x_class(a) * w_a, where the
per-generator weights w_a fix the normalization of the class constants:

    w_a = 4 * G_aa                    (all classes except the balance class)
    w_balance = 2 * (p*q*n)^2         (the unnormalized trace-balance generator)

The overall factor is calibrated once so that x = (1, ..., 1) is the
bi-invariant metric with Einstein constant n/8; the balance-class factor puts
x_4 in the gauge used by the closed-form solution families.  With frame
brackets [e_a, e_b] = f^c_ab e_c and constant g, the Koszul formula gives
constant connection coefficients

    Gamma^c_ab = (F_abc - F_bca + F_cab) / (2 g_cc),   F_abc = f^c_ab g_cc,

and the curvature operator R(e_a, e_b) e_c = (grad_a grad_b - grad_b grad_a
- grad_[a,b]) e_c yields the frame Riemann tensor.

The engine works on nonzero entries (``sparse.Nonzeros``): Gamma lives on the
nonzeros of f, and Ricci is a sum of products of Gamma and f entries, so no
d^4 array is built.  The one Einstein fit, ``_unit_fit``, reads lambda and the
residual off the Ricci diagonal at the first generator of each metric class
(``StructureConstants.class_rows``), formed term for term from the nonzeros
of f (``_ricci_diagonal``); its docstring proves that the reduction is exact.
|Riem|^2, for an Einstein verdict's I1, reads no f at all:
``riemann_norm_sq(sc, metric)`` evaluates one exact table of its class-level
form, whose integers hold at every n and split (its docstring has the proof).
So the verdict's cross-check of a record, the fit on f, stays independent of
the table.  ``levi_civita``, which forms Gamma with the same factor
(``_koszul``), and the full Ricci matrix by joins, ``ricci_fast(gamma, sc)``,
are the tests' oracles of the diagonal; the dense ``riemann``,
``ricci``, ``lower_riemann`` and ``riem_norm_sq`` remain as test oracles, and
tests/test_riemann_table.py holds the row-based |Riem|^2 that the table
replaced.

``einstein_verdict(sc, x, tol)`` is the one Einstein evaluation; ``check``
and the solver's records both use it.  It fits the metric at x * 2^-k, which
is exact and puts every value in the float range wherever that is possible,
so its residual, lambda and I1 are scale-free.  ``einstein_residual(sc, x)``,
``invariant_I1(sc, x, tol)`` and ``class_ricci_eigenvalues(sc, x)`` are views
of that same fit: they take the same class constants x, give its bits and
raise where it raises.  ``MetricSpec`` carries the frame metric g of x to the
engine primitives (``riemann_norm_sq``, ``levi_civita`` and the dense
oracles) only.
Everything here is a pure function of (f, g); results are deterministic and
safe to share.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .liealg import StructureConstants
from .sparse import Nonzeros, join

DEFAULT_EINSTEIN_TOL = 1e-8

_BIINVARIANT_WEIGHT = 4.0  # fixes lambda = n/8 at x = (1,...,1)


def frame_weights(sc: StructureConstants) -> np.ndarray:
    """Per-generator metric weights w_a (frame metric is g_aa = x_class * w_a)."""
    w = _BIINVARIANT_WEIGHT * sc.gram_diag
    p, n = sc.p, sc.n
    if sc.scheme == 2 and p * (n - p):
        # the balance class is nonempty iff p, q >= 1, and it is the last class
        w[sc.class_rows[0][-1]] = 2.0 * float(p * (n - p) * n) ** 2
    return w


@dataclass(frozen=True)
class MetricSpec:
    """A class-diagonal metric as the engine primitives take it: the
    frame-diagonal metric g_aa = x_class(a) * w_a (``frame_weights``) of the
    positive class constants x.

    The Einstein views take x itself; build this with ``from_x``.
    """

    g: np.ndarray

    def __post_init__(self):
        self.g.flags.writeable = False

    @classmethod
    def from_x(cls, sc: StructureConstants, x) -> "MetricSpec":
        return cls(g=np.asarray(checked_x(sc.num_classes, x))[sc.class_of] * frame_weights(sc))


def checked_x(num_classes: int, x) -> tuple[float, ...]:
    """x as floats; raises ValueError unless it is one finite positive entry
    for each of ``num_classes`` classes.  The one check of x: the command line
    runs it before it builds f."""
    x = tuple(float(v) for v in x)
    if len(x) != num_classes:
        raise ValueError(f"expected {num_classes} metric constants, got {len(x)}")
    if not all(math.isfinite(v) and v > 0 for v in x):
        raise ValueError(f"metric constants must be finite and strictly positive, got {x}")
    return x


def levi_civita(sc: StructureConstants, metric: MetricSpec) -> Nonzeros:
    """Connection coefficients Gamma^c_ab of the Levi-Civita connection, at (c, a, b).

    Satisfies 2 g(grad_a e_b, e_c) = g([a,b],c) - g([b,c],a) + g([c,a],b),
    hence metric compatibility and Gamma^c_ab - Gamma^c_ba = f^c_ab.  The
    trace form is ad-invariant, so f_abc = f^c_ab G_cc is totally
    antisymmetric and the three Koszul terms share the factor f^c_ab:

        Gamma^c_ab = f^c_ab (y_c - y_a + y_b) / (2 y_c),   y = g / G.

    Gamma therefore lives on the nonzeros of f; raises ValueError on the f of
    ``formed_structure_constants``, which holds only part of them.
    """
    f = sc.all_of_f()
    c, a, b = f.index
    values = _koszul(f.values, metric.g / sc.gram_diag, c, a, b)
    keep = values != 0.0
    return Nonzeros(f.shape, (c[keep], a[keep], b[keep]), values[keep])


def _koszul(f: np.ndarray, y: np.ndarray, c, a, b) -> np.ndarray:
    """Gamma^c_ab = f^c_ab (y_c - y_a + y_b) / (2 y_c) at the entries (c, a, b)
    with values f, y = g / G: the one place a Gamma value is formed."""
    return f * (y[c] - y[a] + y[b]) / (2.0 * y[c])


def ricci_fast(gamma: Nonzeros, sc: StructureConstants) -> np.ndarray:
    """The d x d Ricci matrix, from the nonzeros of Gamma and f.

    The same contraction as ricci(riemann(...)),

        Ric_cb = -Gamma^a_be Gamma^e_ac - f^e_ab Gamma^a_ec,

    with each product formed only for entry pairs whose shared indices agree.
    Its third term v_e Gamma^e_bc, v_e = Gamma^a_ae, vanishes: Gamma lives on
    the nonzeros of f, and f^a_ae = 0 because the lowered f is totally
    antisymmetric.
    No verdict calls it: it is the tests' oracle of ``_ricci_diagonal``, and
    perfbench's probes time it.  Raises ValueError on the f of
    ``formed_structure_constants``.
    """
    d = sc.d
    gc, ga, gb = gamma.index
    gv = gamma.values
    f = sc.all_of_f()
    fc, fa, fb = f.index
    fv = f.values
    # Gamma^a_be Gamma^e_ac: entries (a, b, e) and (e, a, c)
    i, j = join(gc * d + gb, ga * d + gc)
    # f^e_ab Gamma^a_ec: entries (e, a, b) and (a, e, c)
    k, m = join(fa * d + fc, gc * d + ga)
    keys = np.concatenate([gb[j] * d + ga[i], gb[m] * d + fb[k]])
    terms = np.concatenate([-gv[i] * gv[j], -fv[k] * gv[m]])
    return np.bincount(keys, weights=terms, minlength=d * d).reshape(d, d)


def _ricci_diagonal(sc: StructureConstants, metric: MetricSpec) -> np.ndarray:
    """Ric_cc for each c in ``sc.class_rows[0]``, in class order, straight from
    the nonzeros of f: the same floats as the diagonal entries of the rows
    ``ricci_fast(levi_civita(sc, metric), sc)[first]``, with no join and no
    Gamma over all of f.  Every entry it reads has the formed generator c in
    some slot, and the other entries only drop out of its filters, so the f
    of ``formed_structure_constants`` gives the same floats as all of f.

    On the diagonal the two terms of ``ricci_fast`` are

        Ric_cc = -sum Gamma^a_ce Gamma^e_ac - sum f^e_ac Gamma^a_ec,

    and ``ricci_fast`` adds them in this order: first the products over the
    Gamma entries (a, c, e) in f's order, each with its partner (e, a, c), then
    those over the f entries (e, a, c) in f's order, each with the Gamma entry
    (a, e, c).  Here the sums run over the f entries at the same indices, in
    the same order, and each Gamma value is formed by ``_koszul``, as in
    ``levi_civita``, so every term ``ricci_fast`` adds is the same float.
    The partners are f entries too: f_abc = f^c_ab G_cc is totally
    antisymmetric, so (a, c, e) is an entry of f iff (e, a, c) and (a, e, c)
    are.  Every partner ends in the row c, so its position comes from
    ``searchsorted`` on the sorted keys (e, a, position of c) of the f
    entries that end in a formed row.

    The only terms added here that ``ricci_fast`` does not add are those whose
    Gamma factor ``levi_civita`` drops, as y_c - y_a + y_b is 0 there; such a
    term is a product with a +-0 factor, +-0 when its other factor is
    finite.  ``np.bincount`` adds each row's terms in input order to a sum
    that starts at +0.  In round to nearest, s + (+-0) = s for s != 0, and
    +0 + (+-0) = +0, while a sum of nonzero floats that cancels is +0, never
    -0.  So the sum is +0 or nonzero at every step, a +-0 term changes no
    bit, and wherever the terms are finite the rows are the same floats as
    those of ``ricci_fast``.  (A non-finite term makes lambda non-finite, and
    ``_unit_fit`` raises.)
    """
    d = sc.d
    fc, fa, fb = sc.nonzeros.index
    fv = sc.nonzeros.values
    first, _ = sc.class_rows
    y = metric.g / sc.gram_diag
    position = np.full(d, -1)
    position[first] = np.arange(first.size)
    formed = position >= 0
    # the entries (e, a, c) with c a formed row: the f entries of the second
    # term and every partner; their keys ascend, as f is sorted by (e, a, c),
    # and position[c] ascends with c.  The keys stay below first.size * d^2.
    last = formed[fb].nonzero()[0]
    e, a, c = fc[last], fa[last], fb[last]
    key = (e * d + a) * first.size + position[c]
    gamma = _koszul(fv[last], y, e, a, c)
    # Gamma^a_ce Gamma^e_ac: entries (a, c, e) and (e, a, c)
    mid = formed[fa].nonzero()[0]
    a1, c1, e1 = fc[mid], fa[mid], fb[mid]
    left = _koszul(fv[mid], y, a1, c1, e1)
    right = gamma[key.searchsorted((e1 * d + a1) * first.size + position[c1])]
    # f^e_ac Gamma^a_ec: entries (e, a, c) and (a, e, c)
    partner = gamma[key.searchsorted((a * d + e) * first.size + position[c])]
    rows = np.concatenate([position[c1], position[c]])
    terms = np.concatenate([-left * right, -fv[last] * partner])
    return np.bincount(rows, weights=terms, minlength=first.size)


def riemann_norm_sq(sc: StructureConstants, metric: MetricSpec) -> float:
    """|Riem|^2 of the metric, from the exact class-level table of ``_riemann_table``.

    The value of riem_norm_sq(riemann(levi_civita(sc, metric), sc), metric),
    correctly rounded from the exact |Riem|^2 at the class constants
    Y_k = g_aa / G_aa (a in class k) of ``metric``; no step builds Gamma, a
    Riemann row or a key, and the cost does not grow with n.

    **The form.**  ``levi_civita`` gives Gamma^c_ab = f^c_ab phi(k_c, k_a, k_b),
    phi(c, a, b) = (Y_c - Y_a + Y_b) / (2 Y_c), so

        Riem_dcab = sum_e  f^d_ae f^e_bc phi(d, a, e) phi(e, b, c)
                         - f^d_be f^e_ac phi(d, b, e) phi(e, a, c)
                         - f^e_ab f^d_ec phi(d, e, c).

    Group the terms by a label tau, the term type and the class of e: S_tau is
    the sum of the f products of one label, and v_K[tau] its phi factor,
    which depends only on the classes K = (k_d, k_c, k_a, k_b).  As
    g_d / (g_c g_a g_b) = rho_K G_d / (G_c G_a G_b), rho_K = Y_d / (Y_c Y_a Y_b),

        |Riem|^2 = sum_dcab Riem_dcab^2 g_d / (g_c g_a g_b) = sum_K rho_K v_K^T M_K v_K,
        M_K[tau, sigma] = sum_{d, c, a, b in K} S_tau[dcab] S_sigma[dcab] G_d / (G_c G_a G_b).

    **Each M_K entry is a polynomial in n (scheme 1) or in (p, q) (scheme 2).**

    - *Projectors.*  With the trace form B(X, Y) = tr(XY), G_ab = B(T_a, T_b)
      and f^c_ab = -i B([T_a, T_b], T_c) / G_cc.  Each of the six sums in an
      entry (over d, c, a, b, e in S_tau and e in S_sigma) runs over one class
      with one factor 1/G, so it contracts with P_k = sum_{a in k} T_a (x) T_a
      / G_aa.  The T_a of a class are B-orthogonal, so P_k is the tensor of the
      B-orthogonal projection onto the span of the class: it does not depend
      on the basis.  An entry is the full contraction of six projectors with
      four trilinear forms t(X, Y, Z) = tr(X [Y, Z]), two from each S, times
      (-i)^4 = 1.
    - *Kronecker-delta patterns.*  Over an index range R, let U_R = sum_{A,B
      in R} E_AB (x) E_BA, T_R = sum E_AB (x) E_AB, D_R = sum_A E_AA (x) E_AA
      and I_R = sum_{A in R} E_AA; let P and Q hold the first p and the last q
      indices.  Written in the matrix units, scheme 1 has
      P_sym = (U + T) / 2 - D, P_anti = (U - T) / 2 and P_diag = D - I (x) I / n;
      scheme 2 has P_0 = U_P - I_P (x) I_P / p, P_1 = U_Q - I_Q (x) I_Q / q,
      the cross block U_PQ + U_QP (U over A in P, B in Q) and the balance line
      I_P (x) I_P / p + I_Q (x) I_Q / q - I (x) I / n, for p, q >= 1.  At p = 1,
      P_0 as written is 0, the projector of the empty su(1).
    - *The contraction.*  t(X, Y, Z) = 0 when one argument is the central I, so
      every term with an I (x) I factor vanishes and 1/n never appears.  t is
      alternating, so it vanishes when two arguments commute: a form takes at
      most one leg I_P or I_Q, and as every projector joins two different
      forms, a term holds at most two factors 1/p or 1/q.  Each term is then
      +-2^-s p^-alpha q^-beta, s <= 6, alpha + beta <= 2, times the number of
      index assignments that its deltas allow: the product over its index
      loops of |R|, each n, p, q or 0.  The terms with U, T and D only are
      ribbon graphs (T a twisted band, D a band with its two lines merged,
      which never adds a loop) of V = 4 trivalent vertices and E = 6 edges; a
      connected closed surface has Euler characteristic <= 2, so the loops
      number F <= 2 - V + E = 4.  An I_R (x) I_R factor deletes an edge, which
      adds at most one loop.
    - So 2^6 M_K is an integer polynomial in n of degree <= 4, and
      2^6 p^2 q^2 M_K an integer polynomial in (p, q) of degree <= 8: a sum of
      p^i q^j with i, j >= -2 and i + j <= 4.

    **The table.**  Expanding the form in the Y_k gives |Riem|^2 as a Laurent
    polynomial in Y whose coefficients are fixed rational combinations of M
    entries, so polynomials of the same kind.  n = 2..6 fix those of scheme 1,
    and the splits p, q >= 1, p + q <= 10 those of scheme 2 (the principal
    lattice of degree 8).  ``_riemann_table`` stores them as integers over one
    denominator: 19 monomials in Y for scheme 1 and 12 for scheme 2, with 4
    and 11 coefficients each.  tests/test_riemann_table.py builds M_K from f,
    regenerates every integer and checks the table at n <= 16 and at every
    split with n <= 12.  So the table holds at every n >= 2 and p, q >= 1.

    **Empty classes.**  A monomial with a nonzero power of Y_k comes only from
    terms with an index in class k.  At p = 1 or q = 1 the projector of the
    empty su(1) is 0 as written, so those terms vanish, and ``norm_sq`` leaves
    out the rows of an empty class exactly.  At p = 0 or q = 0 the one class
    is su(n) and the metric is bi-invariant: the one row left is
    n^2 (n^2 - 1) / 4 / Y^2, the bi-invariant |Riem|^2 (the sum of the scheme-1
    table at equal Y, as a test checks).  Its coefficient holds no 1/p or 1/q,
    so no 1/p is evaluated at p = 0.

    **Evaluation.**  In floating point the monomials cancel near the edges of
    the domain: the 19 terms of scheme 1 give 16.0 instead of 17.25 at
    x = (1, 1, 1e-8), and the quadratic forms lose every digit at a scheme-2
    x4 near 1e-20 of the other constants.  So ``_riemann_table.norm_sq`` adds
    them exactly in integers, and the result is correctly rounded.  Its domain
    is the form's: where the class weight rho_K of a 4-tuple with a nonzero
    term is not a finite float (one class constant below about 1e-155 of
    the largest, or below 1e-103 where three lower indices share its class),
    the result is inf, as the row sums of the engine before the table
    overflowed there.
    """
    from . import _riemann_table  # read on the first I1: basis and cli's import never load it

    first, _ = sc.class_rows
    Y = [1.0] * sc.num_classes
    nonempty = [False] * sc.num_classes
    for k, y in zip(sc.class_of[first].tolist(), (metric.g[first] / sc.gram_diag[first]).tolist()):
        Y[k], nonempty[k] = y, True
    z = (sc.n,) if sc.scheme == 1 else (sc.p, sc.n - sc.p)
    return _riemann_table.norm_sq(sc.scheme, z, Y, nonempty)


# -- dense oracles -----------------------------------------------------------
#
# The functions below build the d^4 Riemann tensor.  They are the test
# oracles of the nonzero engine above and are not used by the engine.


def riemann(gamma, sc: StructureConstants) -> np.ndarray:
    """Dense frame Riemann tensor Riem[d, c, a, b], i.e. R(e_a, e_b) e_c = Riem[d,c,a,b] e_d.
    Raises ValueError on the f of ``formed_structure_constants`` (``sc.all_of_f``)."""
    f = np.asarray(sc.all_of_f())
    gamma = np.asarray(gamma)
    t1 = np.einsum("dae,ebc->dcab", gamma, gamma, optimize=True)
    t2 = np.einsum("dcab->dcba", t1)
    t3 = np.einsum("eab,dec->dcab", f, gamma, optimize=True)
    return t1 - t2 - t3


def ricci(riem: np.ndarray) -> np.ndarray:
    """Ricci matrix by contracting the first and third slots of a dense Riem[d, c, a, b]."""
    return np.einsum("acab->cb", riem)


def lower_riemann(riem: np.ndarray, metric: MetricSpec) -> np.ndarray:
    """Fully lowered tensor L[d, c, a, b] = g_dd Riem[d, c, a, b]."""
    return riem * metric.g[:, None, None, None]


def riem_norm_sq(riem: np.ndarray, metric: MetricSpec) -> float:
    """|Riem|^2 of a dense Riem: all four indices of the lowered tensor raised with g^-1."""
    g = metric.g
    low = lower_riemann(riem, metric)
    up = low / g[:, None, None, None] / g[None, :, None, None]
    up /= g[None, None, :, None] * g[None, None, None, :]
    return float(np.sum(low * up))


def _unit_fit(sc: StructureConstants, x) -> tuple[MetricSpec, np.ndarray, float, float, float]:
    """(metric, ricci_diag, lambda_unit, residual, lambda): the Einstein fit of
    the metric at x * 2^-k, where k puts max(x * 2^-k) in [1/2, 1) exactly.

    ``metric`` is the frame metric at x * 2^-k, ``ricci_diag`` holds Ric_cc at
    the first generator c of each nonempty class (``sc.class_rows``), in class
    order, and ``lambda_unit`` is lambda there; ``lambda`` is lambda at x.

    Ric_cc is formed only at the first generator of each class
    (``_ricci_diagonal``; 3 entries for scheme 1, at most 4 for scheme 2).
    With Ric_cc = r_k g_c on class k of size |k|, the scalar curvature is
    s = sum_k |k| r_k, lambda = s / d, and the residual is

        max_k |r_k - lambda| / lambda              (lambda > 0),
        max_k |r_k - lambda| / max_k |r_k|         (lambda <= 0).

    These are the g-trace mean of Ric and the max-norm of the traceless Ricci
    endomorphism Ric - lambda Id in a g-orthonormal frame (Besse, Einstein
    Manifolds, ch. 4), relative to lambda, over the full matrix, because Ric
    is diagonal in the frame with Ric = r_k g on each class k:

    - An automorphism of su(n) that maps each class to itself and preserves
      the trace form is an isometry of every class-diagonal metric, so it
      preserves Ric: Ric(phi u, phi v) = Ric(u, v).
    - Within a class.  Conjugation by a permutation matrix (S_n) maps any
      scheme-1 off-diagonal generator to +-1 times any other of its class, so
      their diagonal entries Ric_aa / g_a agree.  The scheme-1 diagonal class
      is the standard representation of S_n, and each nonempty scheme-2 class
      is an irreducible real representation of S(U(p) x U(q)): the adjoint of
      su(p) or su(q), the cross block C^p (x) conj(C^q) (of complex type, whose
      only invariant symmetric forms are multiples of g), or the balance
      line.  By Schur, Ric is a multiple of g on each of them.
    - Scheme 1, the other entries.  Conjugation by diag(+-1) with index A
      flipped maps E_AB to -E_AB for B != A and fixes the diagonal.  Between two
      different pairs, or a pair and a diagonal generator, flip an index that
      lies in exactly one of the two: one generator changes sign and the other
      does not, so their entry is its own negative, i.e. 0.  That leaves
      (S_AB, A_AB) of one pair: T -> -T^T is an automorphism that preserves
      the trace form and maps S_AB to -S_AB, A_AB to A_AB and H to -H, so this
      entry vanishes as well.
    - Scheme 2.  The nonempty classes are pairwise inequivalent irreducible
      representations of K = S(U(p) x U(q)): the balance line is the trivial
      one; (e^{iqt} 1_p, e^{-ipt} 1_q) in K acts on the cross block by e^{int}
      and trivially on su(p) and su(q); and (1_p, B) with B in SU(q) acts
      trivially on su(p) but not on su(q).  By Schur, the block of Ric
      between two classes, an equivariant map, is 0.

    So the eigenvalues of the Ricci endomorphism are the r_k, and the formed
    entries give them all.  lambda reads only the diagonal, so it has the bits
    of the fit on the full Ricci rows of ``ricci_fast``.

    The residual is relative so that one tol holds at every n: an absolute
    |Ric_cc - lambda g_c| grows by rounding alone with the scheme-2 balance
    constant, and rejected exact closed forms at n = 40.  lambda <= 0 is never
    Einstein on compact non-abelian SU(n); the largest |r_k| keeps the
    residual finite and scale-free there.

    Ric is the same at every scale of the metric, while r_k and lambda scale
    as 1/c, so a power of two changes no bit of Ric or the residual: lambda
    at x is lambda_unit * 2^-k wherever that is representable.  Raises
    ValueError when x is not one finite positive entry per class (quoting x
    as given), when an entry of x * 2^-k is below the smallest normal float,
    or when the residual or lambda at x is not finite.
    """
    x = checked_x(sc.num_classes, x)
    k = math.frexp(max(x))[1]
    x = [math.ldexp(t, -k) for t in x]
    if min(x) < sys.float_info.min:
        raise ValueError("the metric constants span too many orders of magnitude to evaluate")
    first, size = sc.class_rows
    with np.errstate(all="ignore"):  # a non-finite result raises below
        metric = MetricSpec(g=np.asarray(x)[sc.class_of] * frame_weights(sc))
        ric = _ricci_diagonal(sc, metric)
        r = ric / metric.g[first]
        lam_unit = float((size * r).sum()) / sc.d
        scale = lam_unit if lam_unit > 0 else np.abs(r).max()
        residual = float(np.abs(r - lam_unit).max() / scale)
    try:
        lam = math.ldexp(lam_unit, -k)
    except OverflowError:  # raises below
        lam = math.inf
    if not (math.isfinite(residual) and math.isfinite(lam)):
        raise ValueError(f"the curvature is not representable "
                         f"(residual {residual}, lambda {lam})")
    return metric, ric, lam_unit, residual, lam


def einstein_verdict(sc: StructureConstants, x,
                     tol: float = DEFAULT_EINSTEIN_TOL) -> tuple[float, float, float | None]:
    """(residual, lambda, I1) of the metric with class constants x.

    The metric is Einstein iff residual <= tol and lambda > 0 (every Einstein
    metric of compact non-abelian SU(n) has lambda > 0); I1 is then
    |Riem|^2 / lambda^2, and None otherwise.  All three are scale-free: they
    are read off ``_unit_fit``.  Raises ValueError unless tol is finite and
    > 0 (a nan, zero or negative tol would decide every verdict), where
    ``_unit_fit`` does, and when the I1 of an Einstein metric is not a finite
    positive number.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and strictly positive (got {tol})")
    metric, _, lam_unit, residual, lam = _unit_fit(sc, x)
    if not (residual <= tol and lam > 0):
        return residual, lam, None
    with np.errstate(all="ignore"):  # a non-finite I1 raises below
        rnorm = riemann_norm_sq(sc, metric)
    try:
        I1 = rnorm / lam_unit**2
    except (OverflowError, ZeroDivisionError):  # lambda^2 out of the float range
        I1 = math.nan
    if not 0.0 < I1 < math.inf:  # Ric = lambda g with lambda != 0 has Riem != 0
        raise ValueError(f"I1 is not representable at this metric (lambda {lam!r})")
    return residual, lam, I1


def einstein_residual(sc: StructureConstants, x) -> tuple[float, float]:
    """(residual, lambda_best) of ``einstein_verdict`` for the Einstein condition Ric = lambda g.

    lambda_best is the g-trace mean of Ricci; the residual is the max-norm of
    the traceless Ricci endomorphism Ric - lambda_best * Id in a g-orthonormal
    frame, relative to lambda_best (``_unit_fit``).  Zero residual iff the
    metric is Einstein.
    """
    _, _, _, residual, lam = _unit_fit(sc, x)
    return residual, lam


def invariant_I1(sc: StructureConstants, x, tol: float = DEFAULT_EINSTEIN_TOL) -> float:
    """The dimensionless invariant |Riem|^2 / lambda^2 of ``einstein_verdict``.

    Raises ValueError where the verdict raises, and when it finds the metric
    not Einstein within ``tol`` (a residual above ``tol``, or lambda <= 0).
    """
    residual, lam, I1 = einstein_verdict(sc, x, tol)
    if I1 is None:
        raise ValueError(f"I1 undefined: metric is not Einstein "
                         f"(residual {residual:.3e}, lambda {lam!r}, tol {tol:.1e})")
    return I1


def class_ricci_eigenvalues(sc: StructureConstants, x) -> np.ndarray:
    """Per-class Ricci eigenvalues R_aa / w_a (one value per generator class, NaN
    for an empty class), from the fit of ``einstein_verdict``.

    For a class-diagonal metric the Ricci matrix is diagonal in the frame and
    r_k g on each class k (``_unit_fit``), so R_aa / w_a is that of the
    class's first generator; it equals lambda * x_c exactly when the metric is
    Einstein.  Ric does not change with the scale of the metric, so this is
    its value at x.
    """
    _, ric, _, _, _ = _unit_fit(sc, x)
    first, _ = sc.class_rows
    out = np.full(sc.num_classes, np.nan)
    out[sc.class_of[first]] = ric / frame_weights(sc)[first]
    return out
