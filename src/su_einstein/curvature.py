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
nonzeros of f, and Ricci and |Riem|^2 are sums of products of Gamma and f
entries, so no d^4 array is built.  Both are formed only at the first
generator of each metric class (``StructureConstants.class_rows``): the
Einstein fit of ``curvature_bundle`` reads lambda and the residual off the
Ricci diagonal there, formed term for term from the nonzeros of f
(``_ricci_diagonal``), and ``riemann_norm_sq`` weights each Riemann row by its
class size.  Their docstrings prove that the reductions are exact.  Gamma over
all of f is built only for |Riem|^2, i.e. for an Einstein verdict.
``riemann_norm_sq`` reads the Riemann entries straight off
``sparse.sum_by_key`` of the row terms, with no ``Nonzeros`` in between, and
forms the rows in blocks under a budget of products, so its memory stays
bounded at large n while its value is the same to the bit.  The Ricci rows
by joins, ``ricci_fast(gamma, sc)``, are the tests' oracle of the diagonal;
the dense ``riemann``, ``ricci``, ``lower_riemann`` and ``riem_norm_sq``
remain as test oracles.

``einstein_verdict(sc, x, tol)`` is the one Einstein evaluation; ``check``
and the solver's records both use it.  It fits the metric at x * 2^-k, which
is exact and puts every value in the float range wherever that is possible,
so its residual, lambda and I1 are scale-free.  ``einstein_residual(sc, x)``,
``invariant_I1(sc, x, tol)`` and ``class_ricci_eigenvalues(sc, x)`` are views
of that same fit: they take the same class constants x, give its bits and
raise where it raises.  ``MetricSpec`` carries the frame metric g of x to the
engine primitives (``levi_civita``, ``riemann_norm_sq``, ``curvature_bundle``
and the dense oracles) only.
Everything here is a pure function of (f, g); results are deterministic and
safe to share.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .liealg import StructureConstants
from .sparse import CANCEL_RTOL, Nonzeros, blocks, check_key_range, join, sum_by_key

DEFAULT_EINSTEIN_TOL = 1e-8

_BIINVARIANT_WEIGHT = 4.0  # fixes lambda = n/8 at x = (1,...,1)
# Products per block of Riemann rows in ``riemann_norm_sq``: one block up to
# n = 26 on scheme 1, and a bound on memory beyond (a row of more products is
# a block of its own)
_RIEMANN_TERM_BUDGET = 2**18


def frame_weights(sc: StructureConstants) -> np.ndarray:
    """Per-generator metric weights w_a (frame metric is g_aa = x_class * w_a)."""
    w = _BIINVARIANT_WEIGHT * sc.gram_diag
    if sc.scheme == 2:
        mask = sc.class_of == 3
        if np.any(mask):
            p, n = sc.p, sc.n
            w[mask] = 2.0 * float(p * (n - p) * n) ** 2
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
        return cls(g=np.asarray(_checked_x(sc, x))[sc.class_of] * frame_weights(sc))


def _checked_x(sc: StructureConstants, x) -> tuple[float, ...]:
    """x as floats; raises ValueError unless it is one finite positive entry per class."""
    x = tuple(float(v) for v in x)
    if len(x) != sc.num_classes:
        raise ValueError(f"expected {sc.num_classes} metric constants, got {len(x)}")
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

    Gamma therefore lives on the nonzeros of f.
    """
    f = sc.nonzeros
    c, a, b = f.index
    y = metric.g / sc.gram_diag
    values = f.values * (y[c] - y[a] + y[b]) / (2.0 * y[c])
    keep = values != 0.0
    return Nonzeros(f.shape, (c[keep], a[keep], b[keep]), values[keep])


def ricci_fast(gamma: Nonzeros, sc: StructureConstants,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Rows Ric[c, :] of the Ricci matrix for c in ``rows``, from the nonzeros of Gamma and f.

    The same contraction as ricci(riemann(...)),

        Ric_cb = -Gamma^a_be Gamma^e_ac - f^e_ab Gamma^a_ec,

    with each product formed only for entry pairs whose shared indices agree.
    Its third term v_e Gamma^e_bc, v_e = Gamma^a_ae, vanishes: Gamma lives on
    the nonzeros of f, and f^a_ae = 0 because the lowered f is totally
    antisymmetric.
    The row c is the last index of one Gamma entry in each term, so only the
    Gamma entries (., ., c) with c in ``rows`` take part on that side; the
    result is a (len(rows), d) array, and each of its entries sums the same
    terms in the same order as the full matrix.  ``rows`` defaults to every
    row, which gives the full d x d matrix.  No verdict calls it: it is the
    tests' oracle of ``_ricci_diagonal``, and perfbench's probes time it.
    """
    d = sc.d
    gc, ga, gb = gamma.index
    gv = gamma.values
    fc, fa, fb = sc.nonzeros.index
    fv = sc.nonzeros.values
    if rows is None:
        rows = np.arange(d)
    # rc, ra, rv: the Gamma entries whose last index is an output row;
    # out: that row's position in the result
    nrows = len(rows)
    position = np.full(d, -1)
    position[rows] = np.arange(nrows)
    sel = np.flatnonzero(position[gb] >= 0)
    rc, ra, rv, out = gc[sel], ga[sel], gv[sel], position[gb[sel]]
    # Gamma^a_be Gamma^e_ac: entries (a, b, e) and (e, a, c)
    i, j = join(gc * d + gb, ra * d + rc)
    # f^e_ab Gamma^a_ec: entries (e, a, b) and (a, e, c)
    k, m = join(fa * d + fc, rc * d + ra)
    keys = np.concatenate([out[j] * d + ga[i], out[m] * d + fb[k]])
    terms = np.concatenate([-gv[i] * rv[j], -fv[k] * rv[m]])
    return np.bincount(keys, weights=terms, minlength=nrows * d).reshape(nrows, d)


def _ricci_diagonal(sc: StructureConstants, metric: MetricSpec) -> np.ndarray:
    """Ric_cc for each c in ``sc.class_rows[0]``, in class order, straight from
    the nonzeros of f: the same floats as the diagonal entries of the rows
    ``ricci_fast(levi_civita(sc, metric), sc, first)``, with no join and no
    Gamma over all of f.

    On the diagonal the two terms of ``ricci_fast`` are

        Ric_cc = -sum Gamma^a_ce Gamma^e_ac - sum f^e_ac Gamma^a_ec,

    and ``ricci_fast`` adds them in this order: first the products over the
    Gamma entries (a, c, e) in f's order, each with its partner (e, a, c), then
    those over the f entries (e, a, c) in f's order, each with the Gamma entry
    (a, e, c).  Here the sums run over the f entries at the same indices, in
    the same order, and each Gamma value is formed as ``levi_civita`` forms
    it, so every term ``ricci_fast`` adds is the same float.  The partners are
    f entries too: f_abc = f^c_ab G_cc is totally antisymmetric, so (a, c, e)
    is an entry of f iff (e, a, c) and (a, e, c) are.  Every partner ends in
    the row c, so its position comes from ``np.searchsorted`` on the sorted
    linear keys of the f entries that end in a formed row.

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
    # term and every partner; their keys ascend, as f is sorted by them
    last = np.flatnonzero(formed[fb])
    e, a, c = fc[last], fa[last], fb[last]
    key = (e * d + a) * d + c
    gamma = fv[last] * (y[e] - y[a] + y[c]) / (2.0 * y[e])
    # Gamma^a_ce Gamma^e_ac: entries (a, c, e) and (e, a, c)
    mid = np.flatnonzero(formed[fa])
    a1, c1, e1 = fc[mid], fa[mid], fb[mid]
    left = fv[mid] * (y[a1] - y[c1] + y[e1]) / (2.0 * y[a1])
    right = gamma[np.searchsorted(key, (e1 * d + a1) * d + c1)]
    # f^e_ac Gamma^a_ec: entries (e, a, c) and (a, e, c)
    partner = gamma[np.searchsorted(key, (a * d + e) * d + c)]
    rows = np.concatenate([position[c1], position[c]])
    terms = np.concatenate([-left * right, -fv[last] * partner])
    return np.bincount(rows, weights=terms, minlength=first.size)


def _riemann_rows(gamma: Nonzeros, sc: StructureConstants,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(key, term): the terms of Riem[d, c, a, b] with a < b, for every c and
    every d in ``rows``, each at the key ((r D + c) D + a) D + b of its entry,
    where r is the position of d in ``rows``.

    Each entry is the sum of its terms, key-joined products

        Riem_dcab = P_dcab - P_dcba - f^e_ab Gamma^d_ec,   P_dcab = Gamma^d_ae Gamma^e_bc,

    where a P term with a > b is moved to (d, c, b, a) with its sign flipped.
    The terms of a row d come in the same relative order for any ``rows``
    that holds d.
    """
    D = sc.d
    check_key_range(len(rows), D, D, D)
    gc, ga, gb = gamma.index
    gv = gamma.values
    fc, fa, fb = sc.nonzeros.index
    fv = sc.nonzeros.values
    upper = np.flatnonzero(fa < fb)
    position = np.full(D, -1)
    position[rows] = np.arange(len(rows))
    sel = np.flatnonzero(position[gc] >= 0)
    # rd, ra, rb, rv: the Gamma entries (d, a, b) with d in rows, rd as r D
    rd, ra, rb, rv = position[gc[sel]] * D, ga[sel], gb[sel], gv[sel]
    # P: entries (d, a, e) and (e, b, c)
    i, j = join(rb, gc)
    keep = ra[i] != ga[j]
    i, j = i[keep], j[keep]
    a, b = ra[i], ga[j]
    p_key = ((rd[i] + gb[j]) * D + np.minimum(a, b)) * D + np.maximum(a, b)
    p_term = np.sign(b - a) * rv[i] * gv[j]
    # f^e_ab Gamma^d_ec: entries (e, a, b) with a < b and (d, e, c)
    k, m = join(fc[upper], ra)
    k = upper[k]
    f_key = ((rd[m] + rb[m]) * D + fa[k]) * D + fb[k]
    f_term = -fv[k] * rv[m]
    return np.concatenate([p_key, f_key]), np.concatenate([p_term, f_term])


def riemann_norm_sq(gamma: Nonzeros, sc: StructureConstants, metric: MetricSpec) -> float:
    """|Riem|^2 from one Riemann row per metric class.

    Same value as riem_norm_sq(riemann(gamma, sc), metric).  With a diagonal
    metric, |Riem|^2 is the sum over d of the row shares

        C_d = sum_{c,a,b} Riem_dcab^2 g_d / (g_c g_a g_b)
            = 2 sum_{c, a<b} Riem_dcab^2 g_d / (g_c g_a g_b),

    and C_d = Q(e_d / sqrt(g_d)) for the quadratic form
    Q(u) = sum |R(u, u_c, u_a, u_b)|^2 over a g-orthonormal frame u_i.  Only
    the row of the first generator of each class is formed, weighted by the
    size of its class (3 rows for scheme 1, at most 4 for scheme 2).  The
    reduction is exact because every unit generator of a class has the same
    share:

    - A Lie-algebra automorphism that maps each class to itself and preserves
      the trace form is an isometry of every class-diagonal metric, so it
      preserves R, and Q(Ad u) = Q(u) for unit u.
    - Scheme 1: conjugation by a permutation matrix (S_n) is such an
      automorphism.  It maps any off-diagonal generator to +-1 times any
      other of its class, so those rows share one C_d.  On the diagonal
      generators it acts by the standard representation of S_n, which is
      irreducible.  By Schur, Q restricted to that span is a multiple of g,
      so every unit diagonal generator has the same share too.
    - Scheme 2: conjugation by S(U(p) x U(q)) is such an automorphism.  Each
      nonempty class is an irreducible real representation of that group:
      the adjoint of su(p) or su(q), the cross block C^p (x) conj(C^q)
      (of complex type, whose only invariant symmetric forms are multiples
      of g), or the one-dimensional balance line.  So Q restricted to a
      class is a multiple of g, and every unit generator of the class has
      the same share.

    The rows are formed in ascending blocks of at most ``_RIEMANN_TERM_BUDGET``
    products (a row with more is a block of its own).  An entry gets the same
    terms in the same order in any block that holds its row, so it is the
    same float, and the shares of all blocks are concatenated in ascending
    key order before the one final sum: the result does not depend on the
    blocks, to the bit.
    """
    D, g = sc.d, metric.g
    first, size = sc.class_rows
    weight = np.zeros(D)
    weight[first] = size
    rows = np.sort(first)
    shares = []
    for lo, hi in blocks(_riemann_row_terms(gamma, sc)[rows], _RIEMANN_TERM_BUDGET):
        key, total, scale = sum_by_key(*_riemann_rows(gamma, sc, rows[lo:hi]))
        keep = np.abs(total) > CANCEL_RTOL * scale
        rest, b = np.divmod(key[keep], D)
        rest, a = np.divmod(rest, D)
        r, c = np.divmod(rest, D)
        d = rows[lo + r]
        shares.append(weight[d] * total[keep]**2 * g[d] / (g[c] * g[a] * g[b]))
    return 2.0 * float(np.sum(np.concatenate(shares)))


def _riemann_row_terms(gamma: Nonzeros, sc: StructureConstants) -> np.ndarray:
    """The number of products that ``_riemann_rows`` joins in each row d
    (P products with a = b, which it drops, included)."""
    D = sc.d
    gc, ga, gb = gamma.index
    fc, fa, fb = sc.nonzeros.index
    right = np.bincount(gc, minlength=D)  # P: the entries (e, ., .) per e
    upper = np.bincount(fc[fa < fb], minlength=D)  # f: the entries (e, a, b), a < b, per e
    return np.bincount(gc, weights=right[gb] + upper[ga], minlength=D)


# -- dense oracles -----------------------------------------------------------
#
# The functions below build the d^4 Riemann tensor.  They are the test
# oracles of the nonzero engine above and are not used by the engine.


def riemann(gamma, sc: StructureConstants) -> np.ndarray:
    """Dense frame Riemann tensor Riem[d, c, a, b], i.e. R(e_a, e_b) e_c = Riem[d,c,a,b] e_d."""
    gamma = np.asarray(gamma)
    t1 = np.einsum("dae,ebc->dcab", gamma, gamma, optimize=True)
    t2 = np.einsum("dcab->dcba", t1)
    t3 = np.einsum("eab,dec->dcab", sc.f, gamma, optimize=True)
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


@dataclass(frozen=True)
class CurvatureBundle:
    """The Einstein fit of one metric.

    ``ricci_diag`` holds Ric_cc at the first generator c of each nonempty
    class (``sc.class_rows``), in class order.  ``gamma`` is
    ``levi_civita(sc, metric)``, built on first read; |Riem|^2 is
    ``riemann_norm_sq(gamma, sc, metric)``.
    """

    sc: StructureConstants
    metric: MetricSpec
    ricci_diag: np.ndarray
    lambda_best: float
    residual: float

    @cached_property
    def gamma(self) -> Nonzeros:
        return levi_civita(self.sc, self.metric)


def curvature_bundle(sc: StructureConstants, metric: MetricSpec) -> CurvatureBundle:
    """The Einstein fit of a metric, from the Ricci diagonal alone.

    Ric_cc is formed only at the first generator of each class
    (``_ricci_diagonal``; 3 entries for scheme 1, at most 4 for scheme 2).
    With Ric_cc = r_k g_c on class k of size |k|, the scalar curvature is
    s = sum_k |k| r_k, lambda = s / d, and the residual is the largest
    |Ric_cc - lambda g_c| over those entries.  These are the g-trace mean and
    the max-norm of Ric - lambda g over the full matrix, because Ric is
    diagonal in the frame with Ric = r_k g on each class k:

    - An automorphism of su(n) that maps each class to itself and preserves
      the trace form is an isometry of every class-diagonal metric, so it
      preserves Ric: Ric(phi u, phi v) = Ric(u, v).
    - Within a class, the argument of ``riemann_norm_sq`` for Q applies to the
      symmetric form Ric as well: S_n permutes the generators of each
      scheme-1 off-diagonal class up to sign, so their diagonal entries
      Ric_aa / g_a agree; the scheme-1 diagonal class and each scheme-2 class
      are irreducible, so Ric is a multiple of g there.
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

    The full residual max_k |r_k - lambda| max_{a in k} g_a is then attained
    at the formed entries: g is x_k G_aa up to a factor fixed per class, and
    the first generator of a class is a pair (G_aa = 2) wherever the class has
    one, since the pairs come before the diagonal mixes (G_aa = 1).  lambda
    reads only the diagonal, so it has the bits of the fit on the full Ricci
    rows of ``ricci_fast``.
    """
    first, size = sc.class_rows
    ric = _ricci_diagonal(sc, metric)
    g = metric.g[first]
    lam = float(np.sum(size * (ric / g))) / sc.d
    return CurvatureBundle(sc=sc, metric=metric, ricci_diag=ric, lambda_best=lam,
                           residual=float(np.abs(ric - lam * g).max()))


def _unit_fit(sc: StructureConstants, x) -> tuple[CurvatureBundle, float]:
    """(bundle, lambda): the curvature bundle of the metric at x * 2^-k, where k
    puts max(x * 2^-k) in [1/2, 1) exactly, and lambda at x.

    Ric and the residual are the same at every scale of the metric and lambda
    scales as 1/c, so a power of two changes no bit of them: lambda at x is
    the bundle's lambda * 2^-k wherever that is representable.  Raises
    ValueError when x is not one finite positive entry per class (quoting x
    as given), when an entry of x * 2^-k is below the smallest normal float,
    or when the residual or lambda at x is not finite.
    """
    x = _checked_x(sc, x)
    k = math.frexp(max(x))[1]
    x = tuple(math.ldexp(t, -k) for t in x)
    if min(x) < sys.float_info.min:
        raise ValueError("the metric constants span too many orders of magnitude to evaluate")
    with np.errstate(all="ignore"):  # a non-finite result raises below
        fit = curvature_bundle(sc, MetricSpec.from_x(sc, x))
    try:
        lam = math.ldexp(fit.lambda_best, -k)
    except OverflowError:  # raises below
        lam = math.inf
    if not (math.isfinite(fit.residual) and math.isfinite(lam)):
        raise ValueError(f"the curvature is not representable "
                         f"(residual {fit.residual}, lambda {lam})")
    return fit, lam


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
    fit, lam = _unit_fit(sc, x)
    residual = fit.residual
    if not (residual <= tol and lam > 0):
        return residual, lam, None
    with np.errstate(all="ignore"):  # a non-finite I1 raises below
        rnorm = riemann_norm_sq(fit.gamma, sc, fit.metric)
    try:
        I1 = rnorm / fit.lambda_best**2
    except (OverflowError, ZeroDivisionError):  # lambda^2 out of the float range
        I1 = math.nan
    if not 0.0 < I1 < math.inf:  # Ric = lambda g with lambda != 0 has Riem != 0
        raise ValueError(f"I1 is not representable at this metric (lambda {lam!r})")
    return residual, lam, I1


def einstein_residual(sc: StructureConstants, x) -> tuple[float, float]:
    """(residual, lambda_best) of ``einstein_verdict`` for the Einstein condition Ric = lambda g.

    lambda_best is the g-trace mean of Ricci; the residual is the max-norm of
    Ric - lambda_best * g in the frame.  Zero residual iff the metric is
    Einstein.
    """
    fit, lam = _unit_fit(sc, x)
    return fit.residual, lam


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
    r_k g on each class k (``curvature_bundle``), so R_aa / w_a is that of the
    class's first generator; it equals lambda * x_c exactly when the metric is
    Einstein.  Ric does not change with the scale of the metric, so this is
    its value at x.
    """
    fit, _ = _unit_fit(sc, x)
    first, _ = sc.class_rows
    out = np.full(sc.num_classes, np.nan)
    out[sc.class_of[first]] = fit.ricci_diag / frame_weights(sc)[first]
    return out
