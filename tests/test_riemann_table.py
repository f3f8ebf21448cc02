"""|Riem|^2 from the stored table (``su_einstein._riemann_table``), against f.

Besides its tests, this module holds the two things the table is checked
against:

* **The generator.**  ``class_forms`` builds the class-level form of
  |Riem|^2 from f: for each class 4-tuple K = (k_d, k_c, k_a, k_b) the matrix
  M_K[tau, sigma] = sum S_tau[dcab] S_sigma[dcab] G_d / (G_c G_a G_b) over
  d, c, a, b in the classes of K, with S_tau one term type of the Riemann
  tensor (below).  ``exact_forms`` rounds it to the exact rationals that the
  proof in ``curvature.riemann_norm_sq`` says it is, ``expansion`` expands
  sum_K rho_K v_K^T M_K v_K in the class constants Y, and ``regenerate``
  interpolates the expansion's coefficients in n (scheme 1) or (p, q)
  (scheme 2) from small configurations: it gives back every stored integer.
* **The oracle.**  ``rows_norm_sq`` is the row-based |Riem|^2 that the
  engine evaluated before the table: Gamma over all of f (``levi_civita``),
  one Riemann row per class, each entry a key-joined sum of products
  (``_riemann_rows``), formed in blocks under ``_RIEMANN_TERM_BUDGET``.

With Gamma^c_ab = f^c_ab phi(k_c, k_a, k_b), phi(c, a, b) = (Y_c - Y_a +
Y_b) / (2 Y_c) and Y = g / G constant on each class, a Riemann entry is

    Riem_dcab = sum_e  f^d_ae f^e_bc phi(d, a, e) phi(e, b, c)          (P)
                     - f^d_be f^e_ac phi(d, b, e) phi(e, a, c)          (P~)
                     - f^e_ab f^d_ec phi(d, e, c)                       (F)

and its terms are grouped by a label tau = type * (number of classes) + k_e,
the term type (0 for P, 1 for P~, 2 for F) and the class of e.  S_tau[dcab]
is the sum of the f products of one label, and v_K[tau] its phi factor.
"""

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su_einstein as se
from su_einstein import _riemann_table as table
from su_einstein import curvature, liealg, sparse
from su_einstein.liealg import StructureConstants
from su_einstein.sparse import (CANCEL_RTOL, Nonzeros, blocks, check_key_range, join,
                                sum_by_key)

# -- the oracle: |Riem|^2 from one Riemann row per class ---------------------

# Products per block of Riemann rows in ``rows_norm_sq``: one block up to
# n = 26 on scheme 1, and a bound on memory beyond (a row of more products is
# a block of its own)
_RIEMANN_TERM_BUDGET = 2**18


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
    upper = (fa < fb).nonzero()[0]
    position = np.full(D, -1)
    position[rows] = np.arange(len(rows))
    sel = (position[gc] >= 0).nonzero()[0]
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


def _riemann_row_terms(gamma: Nonzeros, sc: StructureConstants) -> np.ndarray:
    """The number of products that ``_riemann_rows`` joins in each row d
    (P products with a = b, which it drops, included)."""
    D = sc.d
    gc, ga, gb = gamma.index
    fc, fa, fb = sc.nonzeros.index
    right = np.bincount(gc, minlength=D)  # P: the entries (e, ., .) per e
    upper = np.bincount(fc[fa < fb], minlength=D)  # f: the entries (e, a, b), a < b, per e
    return np.bincount(gc, weights=right[gb] + upper[ga], minlength=D)


def rows_norm_sq(sc: StructureConstants, metric: curvature.MetricSpec) -> float:
    """|Riem|^2 from one Riemann row per metric class.

    Same value as riem_norm_sq(riemann(gamma, sc), metric), with gamma =
    ``levi_civita(sc, metric)``.  With a diagonal metric, |Riem|^2 is the
    sum over d of the row shares

        C_d = sum_{c,a,b} Riem_dcab^2 g_d / (g_c g_a g_b)
            = 2 sum_{c, a<b} Riem_dcab^2 g_d / (g_c g_a g_b),

    and every unit generator of a class has the same share
    (``curvature._unit_fit`` proves it for Ric; the argument is the same for
    this quadratic form), so only the row of the first generator of each
    class is formed, weighted by the size of its class.

    The rows are formed in ascending blocks of at most ``_RIEMANN_TERM_BUDGET``
    products (a row with more is a block of its own).  An entry gets the same
    terms in the same order in any block that holds its row, so it is the
    same float, and the shares of all blocks are concatenated in ascending
    key order before the one final sum: the result does not depend on the
    blocks, to the bit.
    """
    D, g = sc.d, metric.g
    gamma = curvature.levi_civita(sc, metric)
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
    return 2.0 * float(np.concatenate(shares).sum())


# -- the generator: M_K from f, and the table from M_K ------------------------

P, P_SWAPPED, F = range(3)  # the term types of a label tau = type * classes + k_e


def _term_sums(sc: StructureConstants):
    """(keys, S): the distinct keys ((r D + c) D + a) D + b of the Riemann
    entries (d, c, a, b) at the formed rows d = ``sc.class_rows[0][r]``, and
    S[i, tau], the f-product sum of label tau at key i."""
    D, nk = sc.d, sc.num_classes
    fc, fa, fb = sc.nonzeros.index
    fv = sc.nonzeros.values
    k = sc.class_of
    keys, labels, values = [], [], []
    for r, d in enumerate(sc.class_rows[0]):
        own = (fc == d).nonzero()[0]  # the entries f^d_xy, at (d, x, y)
        # P: f^d_ae f^e_bc; P~ is P with a and b swapped, and its sign
        i, j = join(fb[own], fc)
        i = own[i]
        a, e, b, c = fa[i], fb[i], fa[j], fb[j]
        product = fv[i] * fv[j]
        keys += [((r * D + c) * D + a) * D + b, ((r * D + c) * D + b) * D + a]
        labels += [P * nk + k[e], P_SWAPPED * nk + k[e]]
        values += [product, -product]
        # F: -f^e_ab f^d_ec
        i, j = join(fa[own], fc)
        i = own[i]
        e, c, a, b = fa[i], fb[i], fa[j], fb[j]
        keys.append(((r * D + c) * D + a) * D + b)
        labels.append(F * nk + k[e])
        values.append(-fv[i] * fv[j])
    labelled, total, _ = sum_by_key(np.concatenate(keys) * 3 * nk + np.concatenate(labels),
                                    np.concatenate(values))
    key, label = np.divmod(labelled, 3 * nk)
    keys, row = np.unique(key, return_inverse=True)
    S = np.zeros((keys.size, 3 * nk))
    S[row, label] = total
    return keys, S


def class_forms(sc: StructureConstants) -> dict:
    """{(K, tau, sigma): M_K[tau, sigma]} for tau <= sigma, the nonzero
    entries of the class-level form, from f.

    M_K = sum_{d in k_d} sum_{c,a,b} S S^T G_d / (G_c G_a G_b) is formed at
    the first generator d of each class, times the size of the class: a
    unit generator's share of each (tau, sigma) entry is the same for the
    whole class, by the argument that ``rows_norm_sq`` uses (each S_tau is
    built from f and the class of e alone, so the automorphisms that fix
    every class preserve it).
    """
    D, G, nk = sc.d, sc.gram_diag, sc.num_classes
    first, size = sc.class_rows
    keys, S = _term_sums(sc)
    rest, b = np.divmod(keys, D)
    rest, a = np.divmod(rest, D)
    r, c = np.divmod(rest, D)
    d = first[r]
    weight = size[r] * G[d] / (G[c] * G[a] * G[b])
    k = sc.class_of
    K = tuple(np.stack([k[d], k[c], k[a], k[b]]))
    code = ((K[0] * nk + K[1]) * nk + K[2]) * nk + K[3]
    out = {}
    for kk in np.unique(code):
        at = code == kk
        M = (S[at] * weight[at, None]).T @ S[at]
        tuple_k = tuple(int(v[at][0]) for v in K)
        for tau, sigma in zip(*np.triu_indices(3 * nk)):
            if M[tau, sigma] != 0.0:
                out[tuple_k, int(tau), int(sigma)] = float(M[tau, sigma])
    return out


def _denominator(scheme: int, n: int, p: int | None) -> int:
    """A multiple of the denominator of every M_K entry: 2^6 p^2 q^2 for
    scheme 2 (with an empty block's size read as 1), 2^6 for scheme 1
    (the proof in ``curvature.riemann_norm_sq``)."""
    if scheme == 1:
        return 64
    return 64 * max(p, 1) ** 2 * max(n - p, 1) ** 2


@lru_cache(maxsize=None)
def exact_forms(scheme: int, n: int, p: int | None = None) -> dict:
    """``class_forms`` at (scheme, n, p) as exact rationals.  Raises unless
    each float lies within 1e-6 of an integer multiple of 1/``_denominator``
    (the float sums carry errors of about 1e-14 relative)."""
    den = _denominator(scheme, n, p)
    out = {}
    for entry, value in class_forms(liealg.structure_constants_of(scheme, n, p)).items():
        scaled = value * den
        nearest = round(scaled)
        assert abs(scaled - nearest) <= 1e-6 * max(1.0, abs(scaled)), (entry, value)
        if nearest:
            out[entry] = Fraction(nearest, den)
    return out


def _laurent_mul(x: dict, y: dict) -> dict:
    out = defaultdict(Fraction)
    for ex, cx in x.items():
        for ey, cy in y.items():
            out[tuple(i + j for i, j in zip(ex, ey))] += cx * cy
    return {e: c for e, c in out.items() if c}


def _monomial(nk: int, *powers: tuple[int, int]) -> tuple:
    """The exponents of prod Y_k^power over the (k, power) pairs."""
    e = [0] * nk
    for k, power in powers:
        e[k] += power
    return tuple(e)


def _phi(nk: int, c: int, a: int, b: int) -> dict:
    """(Y_c - Y_a + Y_b) / (2 Y_c) as a Laurent polynomial {exponents: coefficient}."""
    out = defaultdict(Fraction)
    for k, sign in ((c, 1), (a, -1), (b, 1)):
        out[_monomial(nk, (k, 1), (c, -1))] += Fraction(sign, 2)
    return {e: v for e, v in out.items() if v}


@lru_cache(maxsize=None)
def _term(nk: int, K: tuple, tau: int, sigma: int) -> dict:
    """rho_K v_K[tau] v_K[sigma] (twice that for tau != sigma, the two
    entries of the symmetric M_K) as a Laurent polynomial in Y."""
    kd, kc, ka, kb = K
    out = {_monomial(nk, (kd, 1), (kc, -1), (ka, -1), (kb, -1)): Fraction(1)}  # rho_K
    for label in (tau, sigma):
        kind, ke = divmod(label, nk)
        if kind == P:
            v = _laurent_mul(_phi(nk, kd, ka, ke), _phi(nk, ke, kb, kc))
        elif kind == P_SWAPPED:
            v = _laurent_mul(_phi(nk, kd, kb, ke), _phi(nk, ke, ka, kc))
        else:
            v = _phi(nk, kd, ke, kc)
        out = _laurent_mul(out, v)
    twice = 1 if tau == sigma else 2
    return {e: twice * c for e, c in out.items()}


def expansion(forms: dict, nk: int) -> tuple[dict, set]:
    """(c, live): sum_K rho_K v_K^T M_K v_K expanded in Y, {exponents: exact
    coefficient}, and the 4-tuples K whose term is not identically zero."""
    per_k = defaultdict(lambda: defaultdict(Fraction))
    for (K, tau, sigma), value in forms.items():
        for e, c in _term(nk, K, tau, sigma).items():
            per_k[K][e] += value * c
    total = defaultdict(Fraction)
    live = set()
    for K, terms in per_k.items():
        for e, c in terms.items():
            if c:
                total[e] += c
                live.add(K)
    return {e: c for e, c in total.items() if c}, live


def _solve_exact(A: list, B: list) -> list:
    """X with A X = B, by Gauss-Jordan elimination over the rationals (A square, nonsingular)."""
    n = len(A)
    M = [list(map(Fraction, A[i])) + list(map(Fraction, B[i])) for i in range(n)]
    for col in range(n):
        pivot = next(i for i in range(col, n) if M[i][col])
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for i in range(n):
            if i != col and M[i][col]:
                f = M[i][col]
                M[i] = [v - f * w for v, w in zip(M[i], M[col])]
    return [row[n:] for row in M]


# the coefficient monomials of the proof: n^0..n^4 (scheme 1) and p^i q^j
# with i, j >= -2, i + j <= 4 (scheme 2), and the samples that determine them
Z_MONOMIALS = {1: [(i,) for i in range(5)],
               2: [(i, j) for i in range(-2, 7) for j in range(-2, 5 - i)]}
SAMPLES = {1: [(n, None) for n in range(2, 7)],
           2: [(p + q, p) for p in range(1, 10) for q in range(1, 11 - p)]}


def _z(scheme: int, n: int, p: int | None) -> tuple:
    return (n,) if scheme == 1 else (p, n - p)


def regenerate(scheme: int) -> tuple[dict, set]:
    """({Y exponents: {z exponents: coefficient}}, live 4-tuples): the table
    of ``scheme`` from f, with z = (n,) or (p, q).

    The coefficients of the expansion at the ``SAMPLES`` configurations fix
    each one's polynomial (scheme 1: degree <= 4 in n at n = 2..6) or
    Laurent polynomial (scheme 2: the 45 monomials p^i q^j, i, j >= -2,
    i + j <= 4; times p^2 q^2 a polynomial of degree <= 8 in (p, q), which
    the principal lattice p, q >= 1, p + q <= 10 determines)."""
    nk = 3 if scheme == 1 else 4
    monomials = Z_MONOMIALS[scheme]
    columns, live = defaultdict(dict), set()
    for s, (n, p) in enumerate(SAMPLES[scheme]):
        c, k = expansion(exact_forms(scheme, n, p), nk)
        live |= k
        for e, v in c.items():
            columns[e][s] = v
    exps = sorted(columns)
    A = [[math.prod(Fraction(z) ** i for z, i in zip(_z(scheme, n, p), m)) for m in monomials]
         for n, p in SAMPLES[scheme]]
    B = [[columns[e].get(s, Fraction(0)) for e in exps] for s in range(len(A))]
    X = _solve_exact(A, B)
    out = {}
    for col, e in enumerate(exps):
        coeffs = {m: X[row][col] for row, m in enumerate(monomials) if X[row][col]}
        if coeffs:
            out[e] = coeffs
    return out, live


def stored(scheme: int) -> tuple[dict, set]:
    """The stored table of ``scheme`` in the form of ``regenerate``."""
    t = table.TABLES[scheme]
    out = {}
    for e, coefficients in t.rows:
        terms = {m: Fraction(c, t.denominator) for m, c in zip(t.z_monomials, coefficients) if c}
        out[e] = terms
    return out, set(t.live)


# -- the table against the generator -----------------------------------------

# every split of n <= 12, among them n = 2, p = 0, 1, n - 1 and n, and scheme 1
# up to n = 16 (the table's samples, and more)
GENERATED = ([(1, n, None) for n in range(2, 17)]
             + [(2, n, p) for n in range(2, 13) for p in range(n + 1)])


def _at(coefficients: dict, scheme: int, n: int, p: int | None) -> Fraction:
    return sum(c * math.prod(Fraction(z) ** i for z, i in zip(_z(scheme, n, p), m))
               for m, c in coefficients.items())


@pytest.mark.parametrize("scheme", [1, 2])
def test_regenerates_the_stored_table(scheme):
    assert regenerate(scheme) == stored(scheme)


@pytest.mark.parametrize("scheme,n,p", GENERATED)
def test_the_table_at_every_generated_configuration(scheme, n, p):
    # the expansion of sum_K rho_K v_K^T M_K v_K from f at (n, p), exactly,
    # against the stored table evaluated there; a monomial of an empty class
    # has no term from f, and at p = 0 or q = 0 the table's remaining one holds no 1/p
    nk = 3 if scheme == 1 else 4
    sizes = liealg.class_sizes(scheme, n, p)
    from_f, live = expansion(exact_forms(scheme, n, p), nk)
    table_rows, table_live = stored(scheme)
    kept = {e: c for e, c in table_rows.items() if all(sizes[k] or not x for k, x in enumerate(e))}
    assert from_f == {e: _at(c, scheme, n, p) for e, c in kept.items() if _at(c, scheme, n, p)}
    assert live <= table_live


def test_the_rows_of_one_class_are_the_biinvariant_norm():
    # at p = 0 or q = 0 the metric is bi-invariant on su(n), and the one row
    # left must give its |Riem|^2 = n^2 (n^2 - 1) / (4 Y^2): the scheme-1
    # table at Y = (1, 1, 1) is that polynomial
    rows, _ = stored(1)
    two, _ = stored(2)
    for n in range(2, 200):
        expected = Fraction(n * n * (n * n - 1), 4)
        assert sum(_at(c, 1, n, None) for c in rows.values()) == expected
        assert _at(two[(0, -2, 0, 0)], 2, n, 0) == expected
        assert _at(two[(-2, 0, 0, 0)], 2, n, n) == expected
    assert all(i >= 0 for i, _ in two[(0, -2, 0, 0)]) and all(j >= 0 for _, j in two[(-2, 0, 0, 0)])


def test_the_norm_reads_no_connection_and_no_keys(monkeypatch):
    # no Gamma over all of f, no Riemann row, no key join or sort
    sc = liealg.structure_constants_of(1, 24)
    n, X = 24, 74 / 22
    for owner, name in ((curvature, "levi_civita"), (curvature, "join"), (curvature, "Nonzeros")):
        monkeypatch.setattr(owner, name, None)
    for name in ("join", "sum_by_key", "blocks"):
        monkeypatch.setattr(sparse, name, None)
    I1 = (2 * n * n + 3 * n + 2) * (n - 1) * (3 * n + 4) / (n * (5 * n + 6))
    assert se.invariant_I1(sc, (X, 1.0, X)) == pytest.approx(I1, rel=1e-12)


# -- the table against the row oracle ----------------------------------------

RTOL = 1e-13


def _both(sc, x):
    m = curvature.MetricSpec.from_x(sc, x)
    return curvature.riemann_norm_sq(sc, m), rows_norm_sq(sc, m)


def random_x(rng, k, spread):
    return tuple(10.0 ** rng.uniform(-spread, spread, k))


@pytest.mark.parametrize("scheme,n,p", [(1, n, None) for n in range(2, 13)]
                         + [(2, n, p) for n in range(2, 13) for p in range(n + 1)])
def test_matches_the_row_oracle(scheme, n, p, rng):
    # every ORACLE_CONFIGS and RICCI_ROW_CONFIGS entry of test_curvature
    sc = liealg.structure_constants_of(scheme, n, p)
    for spread in (0.5, 0.5, 2.0, 3.0):
        table_value, oracle = _both(sc, random_x(rng, sc.num_classes, spread))
        assert table_value == pytest.approx(oracle, rel=RTOL)


@pytest.mark.parametrize("n", range(13, 25))
def test_every_split_up_to_n_24(n, rng):
    for p in [None] + list(range(n + 1)):
        sc = liealg.structure_constants_of(1 if p is None else 2, n, p)
        table_value, oracle = _both(sc, random_x(rng, sc.num_classes, 1.0))
        assert table_value == pytest.approx(oracle, rel=RTOL), p


@pytest.mark.parametrize("n", [32, 40, 48, 64])
def test_closed_forms_at_large_n(n):
    # the second family and both branches of every split, each f built and
    # freed in turn (at n = 64 one f takes about 60 MB)
    from su_einstein.solver import branch_x1, branch_x4_lambda

    X = (3 * n + 2) / (n - 2)
    table_value, oracle = _both(liealg.structure_constants_of(1, n), (X, 1.0, X))
    assert table_value == pytest.approx(oracle, rel=RTOL)
    for p in range(1, n):
        sc = liealg.structure_constants_of(2, n, p)
        for sign in (1, -1):
            x1 = branch_x1(n, p, sign)
            x = (x1, (n - p) / p * x1, 1.0, branch_x4_lambda(n, p, x1)[0])
            table_value, oracle = _both(sc, x)
            assert table_value == pytest.approx(oracle, rel=RTOL), (p, sign)
        del sc


HYPOTHESIS_CONFIGS = ([(1, n, None) for n in range(2, 8)]
                      + [(2, n, p) for n in range(2, 8) for p in range(n + 1)])


@settings(max_examples=150, deadline=None)
@given(config=st.sampled_from(HYPOTHESIS_CONFIGS),
       logs=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4))
@example(config=(1, 3, None), logs=[0.0, 2.0, 0.0, 0.0])   # lambda < 0
@example(config=(1, 2, None), logs=[0.0, 0.0, 2.0, 0.0])   # lambda = -8
@example(config=(2, 5, 2), logs=[3.0, -3.0, 0.0, -3.0])
def test_random_metrics_lambda_of_either_sign(config, logs):
    scheme, n, p = config
    sc = liealg.structure_constants_of(scheme, n, p)
    table_value, oracle = _both(sc, tuple(10.0 ** np.array(logs[:sc.num_classes])))
    assert table_value == pytest.approx(oracle, rel=RTOL)


# class constants 10^-e of the others, away from the two float edges of the
# row oracle: near 1e-75 its squared entries overflow where the exact value
# is finite, and from about 1e-155 on it adds entries that cancelled to exact
# zeros where the table's weight rho_K overflows (CHANGES.md)
EXTREME_EXPONENTS = (20, 50, 90, 110, 120, 150)


@pytest.mark.parametrize("scheme,n,p", [(1, n, None) for n in range(2, 7)]
                         + [(2, n, p) for n in range(2, 7) for p in range(n + 1)])
def test_finite_where_the_row_oracle_is_finite(scheme, n, p):
    sc = liealg.structure_constants_of(scheme, n, p)
    k = sc.num_classes
    checked = 0
    with np.errstate(all="ignore"):  # the oracle overflows on the way
        for e, j, alone, base in itertools.product(EXTREME_EXPONENTS, range(k), (True, False),
                                                   (0.5, 0.9)):
            if n == 2 and e > 100:
                continue  # su(2): each class is one generator (CHANGES.md)
            x = np.full(k, base)
            if alone:
                x[j] = 10.0 ** -e
            else:
                x[:] = 10.0 ** -e
                x[j] = base
            table_value, oracle = _both(sc, tuple(x))
            assert np.isfinite(table_value) == np.isfinite(oracle), (e, j, alone, base)
            if np.isfinite(oracle):
                assert table_value == pytest.approx(oracle, rel=1e-6)
            checked += not np.isfinite(oracle)
    assert checked or n == 2 or scheme == 2 and p in (0, n)
