"""Ric and |Riem|^2 from the generator matrices alone: an oracle that shares no
code with the engine.

Its values use nothing from the package but ``build_basis``:

- f from matrix commutators and the trace projection: [T_a, T_b] = i f^c_ab T_c
  with Hermitian T_a, so tr([T_a, T_b] T_c) = i f^c_ab G_cc, G_cc = tr(T_c T_c);
- the frame weights restated from their convention: g_aa = x_class(a) w_a with
  w_a = 4 G_aa, and w = 2 (pqn)^2 for the scheme-2 balance generator;
- Ric from Besse, Einstein Manifolds, Cor. 7.38, in a g-orthonormal frame X_i
  of the unimodular su(n):

      Ric(X, Y) = -1/2 sum_i <[X, X_i], [Y, X_i]> - 1/2 B(X, Y)
                  + 1/4 sum_ij <[X_i, X_j], X> <[X_i, X_j], Y>,

  with B the Killing form;
- |Riem|^2 from grad_X Y = 1/2 ([X, Y] - ad*_X Y - ad*_Y X), where ad*_X is the
  transpose of the matrix of ad_X in that frame, and
  R(X_a, X_b) = grad_a grad_b - grad_b grad_a - grad_[X_a, X_b].

They are compared with ``einstein_verdict`` and ``riemann_norm_sq`` at every
configuration with n <= 7, at its closed forms and at random x (where lambda <= 0
occurs as well), and f with the entries of ``formed_structure_constants``.
"""

import numpy as np
import pytest

import su_einstein as se
from su_einstein.curvature import riemann_norm_sq
from su_einstein.liealg import build_basis

N_MAX = 7
CONFIGS = ([(1, n, None) for n in range(2, N_MAX + 1)]
           + [(2, n, p) for n in range(2, N_MAX + 1) for p in range(n + 1)])
RTOL = 1e-12


def matrix_frame(scheme, n, p):
    """(f, w, class_of) of the (scheme, n, p) basis, from its matrices alone."""
    basis = build_basis(scheme, n, p)
    T = basis.generators
    gram = np.einsum("aij,bji->ab", T, T)
    G = gram.diagonal().real.copy()
    assert np.abs(gram - np.diag(G)).max() <= 1e-14 * G.max()  # trace-orthogonal
    product = np.einsum("aij,bjk->abik", T, T)
    trace = np.einsum("abij,cji->cab", product - product.transpose(1, 0, 2, 3), T)
    assert np.abs(trace.real).max() <= 1e-14 * G.max()  # the bracket is i times Hermitian
    f = trace.imag / G[:, None, None]
    w = 4.0 * G
    if scheme == 2 and 0 < p < n:
        w[basis.class_of == 3] = 2.0 * float(p * (n - p) * n) ** 2
    return f, w, basis.class_of


def curvature_of(frame, x):
    """(Ric, |Riem|^2): Ric in the g-orthonormal frame of the class constants x."""
    f, w, class_of = frame
    s = np.sqrt(np.asarray(x, dtype=float)[class_of] * w)
    c = f * s[:, None, None] / (s[None, :, None] * s[None, None, :])  # [X_a, X_b] = c[k, a, b] X_k
    assert np.abs(np.einsum("iai->a", c)).max() <= 1e-13 * np.abs(c).max()  # unimodular
    killing = np.einsum("kai,ibk->ab", c, c)
    ric = (-0.5 * np.einsum("kai,kbi->ab", c, c) - 0.5 * killing
           + 0.25 * np.einsum("aij,bij->ab", c, c))
    ad = c.transpose(1, 0, 2)       # ad[a] is the matrix of ad_{X_a}
    adjoint = ad.transpose(0, 2, 1)  # ad*[a], its transpose
    nabla = 0.5 * (ad - adjoint - adjoint.transpose(2, 1, 0))  # nabla[a][k, b] = <grad_a X_b, X_k>
    riem = 0.0
    for a in range(len(c)):
        r = nabla[a] @ nabla - nabla @ nabla[a] - np.tensordot(c[:, a, :], nabla, axes=(0, 0))
        riem += float(np.sum(r * r))
    return ric, riem


def oracle_verdict(ric):
    """(residual, lambda, off-diagonal share) of the Ricci matrix in an orthonormal frame."""
    r = ric.diagonal()
    lam = r.mean()
    scale = lam if lam > 0 else np.abs(r).max()
    off = np.abs(ric - np.diag(r)).max() / np.abs(r).max()
    return np.abs(r - lam).max() / scale, lam, off


def closed_form_xs(scheme, n, p):
    if scheme == 1:
        return [rec.x for rec in se.closed_form_scheme1(n)]
    if p in (0, n):
        return [(1.0, 1.0, 1.0, 1.0)]  # su(n) in one block: the bi-invariant metric
    return [rec.x for rec in se.closed_form_scheme2(n, p) if rec.valid]


def random_xs(scheme, n, p, count=3):
    rng = np.random.default_rng([scheme, n, 0 if p is None else p + 1])
    return list(10.0 ** rng.uniform(-1.5, 1.5, (count, 3 if scheme == 1 else 4)))


def assert_matches(frame, sc, x):
    ric, riem = curvature_of(frame, x)
    residual, lam, off = oracle_verdict(ric)
    assert off <= 1e-12, (x, off)  # Ric is diagonal in the frame: _unit_fit's premise
    engine_residual, engine_lam, I1 = se.einstein_verdict(sc, x)
    assert abs(engine_lam - lam) <= RTOL * abs(lam), (x, engine_lam, lam)
    assert abs(engine_residual - residual) <= 1e-12, (x, engine_residual, residual)
    engine_riem = riemann_norm_sq(sc, se.MetricSpec.from_x(sc, x))
    assert abs(engine_riem - riem) <= RTOL * riem, (x, engine_riem, riem)
    if I1 is not None:
        assert abs(I1 - riem / lam**2) <= RTOL * I1, (x, I1, riem / lam**2)
    return lam, I1


@pytest.mark.parametrize("scheme,n,p", CONFIGS,
                         ids=[f"{scheme}-{n}" + ("" if p is None else f"-{p}")
                              for scheme, n, p in CONFIGS])
def test_engine_matches_the_matrices(scheme, n, p):
    frame = matrix_frame(scheme, n, p)
    sc = se.formed_structure_constants(scheme, n, p)
    # the f entries that a verdict reads, those with a formed generator in some
    # slot: its Ricci diagonal sees f only through squares, so a sign shows here
    f = frame[0]
    formed = np.zeros(sc.d, dtype=bool)
    formed[sc.class_rows[0]] = True
    read = formed[:, None, None] | formed[None, :, None] | formed[None, None, :]
    error = np.abs(np.where(read, f, 0.0) - np.asarray(sc.nonzeros)).max()
    assert error <= RTOL * np.abs(f).max()
    for x in closed_form_xs(scheme, n, p):
        _, I1 = assert_matches(frame, sc, x)
        assert I1 is not None, x  # every closed form is Einstein
    for x in random_xs(scheme, n, p):
        assert_matches(frame, sc, x)


def test_random_points_include_negative_lambda():
    # the comparison above reaches the lambda <= 0 branch of the residual
    lams = [se.einstein_verdict(se.formed_structure_constants(scheme, n, p), x)[1]
            for scheme, n, p in CONFIGS for x in random_xs(scheme, n, p)]
    assert min(lams) <= 0 < max(lams)
