"""Curvature engine: connection and tensor identities, Einstein checks, I1.

The decisive correctness property is at the bottom: for random positive
metric constants, the per-class Ricci eigenvalues computed by the engine
coincide with the closed-form equation systems of both ansatz families.
"""

import itertools
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su_einstein as se
from su_einstein import curvature, liealg
from su_einstein.curvature import (
    lower_riemann,
    ricci_fast,
    riemann_norm_sq,
)
from su_einstein.solver import scheme1_system, scheme2_system
from su_einstein.liealg import StructureConstants
from su_einstein.sparse import Nonzeros
from conftest import sc_for
import test_riemann_table as row_oracle

SQ2 = np.sqrt(2.0)


def metric(scheme, n, p, x):
    return se.MetricSpec.from_x(sc_for(scheme, n, p), x)


def random_x(rng, k):
    return tuple(np.exp(rng.uniform(-1.2, 1.2, k)))


class TestMetricSpec:
    def test_rejects_nonpositive(self):
        sc = sc_for(1, 3)
        with pytest.raises(ValueError):
            se.MetricSpec.from_x(sc, (1.0, -1.0, 2.0))
        with pytest.raises(ValueError):
            se.MetricSpec.from_x(sc, (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            se.MetricSpec.from_x(sc_for(1, 3), (bad, 1.0, 1.0))

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            se.MetricSpec.from_x(sc_for(1, 3), (1.0, 1.0, 1.0, 1.0))

    def test_frame_metric_positive(self, rng):
        m = metric(2, 5, 3, random_x(rng, 4))
        assert np.all(m.g > 0)
        assert m.g.shape == (24,)


class TestLeviCivita:
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_biinvariant_gamma_is_half_f(self, c):
        sc = sc_for(1, 3)
        gamma = se.levi_civita(sc, metric(1, 3, None, (c, c, c)))
        npt.assert_allclose(gamma, np.asarray(sc.nonzeros) / 2.0, atol=1e-13)

    def test_su2_unit_x_values(self):
        # frozen from evaluating the Koszul formula on the su(2) constants:
        # the two off-diagonal directions connect with +-sqrt(2)/2, the
        # diagonal one with +-sqrt(2)
        sc = sc_for(1, 2)
        gamma = np.asarray(se.levi_civita(sc, metric(1, 2, None, (1, 1, 1))))
        nonzero = {idx: gamma[idx] for idx in zip(*np.nonzero(np.abs(gamma) > 1e-14))}
        assert len(nonzero) == 6
        expected = {
            (0, 1, 2): -SQ2 / 2, (0, 2, 1): SQ2 / 2,
            (1, 0, 2): SQ2 / 2, (1, 2, 0): -SQ2 / 2,
            (2, 0, 1): -SQ2, (2, 1, 0): SQ2,
        }
        for idx, val in expected.items():
            assert nonzero[idx] == pytest.approx(val, rel=1e-14)

    def test_torsion_100_random_draws(self, rng):
        sc = sc_for(1, 3)
        f = np.asarray(sc.nonzeros)
        for _ in range(100):
            m = metric(1, 3, None, random_x(rng, 3))
            gamma = se.levi_civita(sc, m)
            npt.assert_allclose(gamma - np.transpose(gamma, (0, 2, 1)), f, atol=1e-10)

    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 5, None), (2, 4, 2), (2, 5, 3)])
    def test_metric_compatibility(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        k = 3 if scheme == 1 else 4
        for _ in range(5):
            m = metric(scheme, n, p, random_x(rng, k))
            gamma = se.levi_civita(sc, m)
            # g(grad_a e_b, e_c) + g(e_b, grad_a e_c) = 0
            low = np.einsum("cab,c->abc", gamma, m.g)
            npt.assert_allclose(low + np.einsum("acb->abc", low), 0.0, atol=1e-10)

    def test_koszul_bilinear_identity(self, rng):
        # 2 g(grad_a b, c) = g([a,b],c) - g([b,c],a) + g([c,a],b)
        sc = sc_for(2, 4, 2)
        m = metric(2, 4, 2, random_x(rng, 4))
        gamma = se.levi_civita(sc, m)
        lhs = 2.0 * np.einsum("cab,c->abc", gamma, m.g)
        br = np.einsum("cab,c->abc", np.asarray(sc.nonzeros), m.g)
        rhs = br - np.einsum("bca->abc", br) + np.einsum("cab->abc", br)
        npt.assert_allclose(lhs, rhs, atol=1e-10)


class TestRiemann:
    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 4, None), (1, 5, None),
                                            (2, 4, 2), (2, 5, 3), (2, 5, 2)])
    def test_symmetries_and_bianchi(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        k = 3 if scheme == 1 else 4
        for _ in range(25):
            m = metric(scheme, n, p, random_x(rng, k))
            gamma = se.levi_civita(sc, m)
            riem = se.riemann(gamma, sc)
            low = lower_riemann(riem, m)
            npt.assert_allclose(low, -np.transpose(low, (0, 1, 3, 2)), atol=1e-10)
            npt.assert_allclose(low, -np.transpose(low, (1, 0, 2, 3)), atol=1e-10)
            npt.assert_allclose(low, np.transpose(low, (2, 3, 0, 1)), atol=1e-10)
            bianchi = (low + np.transpose(low, (0, 2, 3, 1))
                       + np.transpose(low, (0, 3, 1, 2)))
            npt.assert_allclose(bianchi, 0.0, atol=1e-10)

    def test_su2_biinvariant_sectional_positive_scalar(self):
        sc = sc_for(1, 2)
        m = metric(1, 2, None, (1, 1, 1))
        low = lower_riemann(se.riemann(se.levi_civita(sc, m), sc), m)
        for a in range(3):
            for b in range(a + 1, 3):
                K = low[a, b, a, b] / (m.g[a] * m.g[b])
                assert K > 0
        assert se.einstein_residual(sc, (1, 1, 1))[1] == pytest.approx(0.25, rel=1e-12)

    def test_balance_block_self_curvature_vanishes(self):
        # the 1-dimensional trace-balance block is abelian; curvature with
        # all indices in it has nothing to act on
        sc = sc_for(2, 4, 2)
        m = metric(2, 4, 2, (1.3, 0.7, 1.0, 0.2))
        riem = se.riemann(se.levi_civita(sc, m), sc)
        u = int(np.nonzero(sc.class_of == 3)[0][0])
        assert riem[u, u, u, u] == 0.0

    def test_ricci_contraction_matches_fast_path(self, rng):
        sc = sc_for(2, 5, 3)
        m = metric(2, 5, 3, random_x(rng, 4))
        gamma = se.levi_civita(sc, m)
        ric_full = se.ricci(se.riemann(gamma, sc))
        npt.assert_allclose(ric_full, ricci_fast(gamma, sc), atol=1e-11)

    @pytest.mark.parametrize("scheme,n,p", [(1, 4, None), (2, 5, 2)])
    def test_ricci_symmetric_and_block_scalar(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        k = 3 if scheme == 1 else 4
        for _ in range(10):
            m = metric(scheme, n, p, random_x(rng, k))
            ric = ricci_fast(se.levi_civita(sc, m), sc)
            npt.assert_allclose(ric, ric.T, atol=1e-11)
            # diagonal in the frame, constant over each class: this is what
            # reduces the Einstein condition to one equation per class
            npt.assert_allclose(ric - np.diag(np.diag(ric)), 0.0, atol=1e-10)
            sigma = np.diag(ric) / se.frame_weights(sc)
            for c in range(sc.num_classes):
                vals = sigma[sc.class_of == c]
                assert np.ptp(vals) < 1e-10


# every scheme-2 split, among them p = 1, q = 1, p = q and one empty block
# (p = 0 or n: all of su(n) is one class, and check accepts it)
ORACLE_CONFIGS = ([(1, n, None) for n in range(2, 7)]
                  + [(2, n, p) for n in range(2, 7) for p in range(n + 1)])
# beyond the dense oracle: scheme 1 up to n = 12 and every split with n <= 12
RICCI_ROW_CONFIGS = ([(1, n, None) for n in range(2, 13)]
                     + [(2, n, p) for n in range(2, 13) for p in range(n + 1)])


def row_shares(riem, m):
    """C_d = sum_{c,a,b} Riem_dcab^2 g_d / (g_c g_a g_b) of a dense Riem: |Riem|^2 = sum_d C_d."""
    g = m.g
    return np.einsum("dcab,d,c,a,b->d", riem**2, g, 1 / g, 1 / g, 1 / g)


def one_block_norm_sq(gamma, sc, m):
    """|Riem|^2 = 2 sum w_d v^2 g_d / (g_c g_a g_b) over the Nonzeros of the
    terms of every class row at once (the row oracle's terms)."""
    D, g = sc.d, m.g
    first, size = sc.class_rows
    weight = np.zeros(D)
    weight[first] = size
    riem = Nonzeros.from_sums((first.size, D, D, D), *row_oracle._riemann_rows(gamma, sc, first))
    r, c, a, b = riem.index
    d = first[r]
    return 2.0 * float(np.sum(weight[d] * riem.values**2 * g[d] / (g[c] * g[a] * g[b])))


class TestNonzeroEngine:
    """The nonzero engine against the dense d^4 oracle, and at sizes the oracle cannot reach."""

    @pytest.mark.parametrize("scheme,n,p", ORACLE_CONFIGS)
    def test_matches_dense_oracle(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        for _ in range(3):
            m = metric(scheme, n, p, random_x(rng, sc.num_classes))
            gamma = se.levi_civita(sc, m)
            riem = se.riemann(gamma, sc)
            ric = se.ricci(riem)
            npt.assert_allclose(ricci_fast(gamma, sc), ric,
                                rtol=0, atol=1e-12 * np.abs(ric).max())
            assert riemann_norm_sq(sc, m) == pytest.approx(se.riem_norm_sq(riem, m), rel=1e-12)

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_ricci_rows_give_the_full_fit(self, scheme, n, p, rng):
        # _unit_fit forms one Ricci row per class; its docstring proves
        # that the full matrix is diagonal and r_k g on each class k
        sc = sc_for(scheme, n, p)
        first, _ = sc.class_rows
        # the first generator has the largest g of its class, so the largest
        # |Ric - lambda g| of the class is in its row
        for a in first:
            assert sc.gram_diag[a] == pytest.approx(
                sc.gram_diag[sc.class_of == sc.class_of[a]].max(), rel=1e-15)
        for _ in range(2):
            x = random_x(rng, sc.num_classes)
            m = metric(scheme, n, p, x)
            gamma = se.levi_civita(sc, m)
            full = ricci_fast(gamma, sc)
            scale = np.abs(full).max()
            assert np.abs(full - np.diag(np.diag(full))).max() <= 1e-12 * scale
            r = np.diag(full) / m.g
            for c in np.unique(sc.class_of):
                assert np.ptp(r[sc.class_of == c]) <= 1e-12 * np.abs(r).max()
            lam = float(np.mean(r))
            # the full matrix's max-norm of Ric - lambda g in a g-orthonormal
            # frame, relative to lambda (to the largest |r| where lambda <= 0)
            unit = np.sqrt(m.g)
            deviation = np.abs(full - lam * np.diag(m.g)) / np.outer(unit, unit)
            relative_to = lam if lam > 0 else np.abs(r).max()
            residual, fit_lam = se.einstein_residual(sc, x)
            assert abs(fit_lam - lam) <= 1e-12 * np.abs(r).max()
            assert abs(residual - deviation.max() / relative_to) \
                <= 1e-12 * np.abs(r).max() / relative_to

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_ricci_diagonal_is_that_of_the_rows(self, scheme, n, p, rng):
        # the fit's diagonal, term for term, has the bits of ricci_fast's rows
        sc = sc_for(scheme, n, p)
        first, _ = sc.class_rows
        at = np.arange(first.size)
        for _ in range(2):
            m = metric(scheme, n, p, random_x(rng, sc.num_classes))
            rows = ricci_fast(se.levi_civita(sc, m), sc)[first]
            assert curvature._ricci_diagonal(sc, m).tobytes() == rows[at, first].tobytes()

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_ricci_diagonal_where_gamma_drops_entries(self, scheme, n, p):
        # x in {1, 2, 3}: y = g / G is x times an integer power of two on
        # every class but the balance line, so y_c - y_a + y_b is 0 exactly
        # at some entries of f; levi_civita drops those and ricci_fast never
        # sees them, while _ricci_diagonal adds their +-0 terms
        sc = sc_for(scheme, n, p)
        first, _ = sc.class_rows
        at = np.arange(first.size)
        dropped = 0
        for x in itertools.product((1.0, 2.0, 3.0), repeat=sc.num_classes):
            m = se.MetricSpec.from_x(sc, x)
            gamma = se.levi_civita(sc, m)
            if gamma.nnz == sc.nonzeros.nnz:
                continue
            rows = ricci_fast(gamma, sc)[first]
            assert curvature._ricci_diagonal(sc, m).tobytes() == rows[at, first].tobytes()
            dropped += 1
            if dropped == 2:
                break
        assert dropped == 2 or first.size == 1  # one class: y_c - y_a + y_b = y

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_formed_rows_give_the_fit_of_all_of_f(self, scheme, n, p, rng):
        # _ricci_diagonal reads only entries with a formed generator in some
        # slot, so the verdict's f gives its bits; x = (1, 2, 3, 1) makes
        # levi_civita drop entries
        full = sc_for(scheme, n, p)
        formed = liealg.formed_structure_constants(scheme, n, p)
        for x in [random_x(rng, full.num_classes) for _ in range(2)] + [(1.0, 2.0, 3.0, 1.0)]:
            x = x[:full.num_classes]
            m = se.MetricSpec.from_x(full, x)
            assert (curvature._ricci_diagonal(formed, m).tobytes()
                    == curvature._ricci_diagonal(full, m).tobytes())
            assert se.einstein_verdict(formed, x, tol=1e300) == se.einstein_verdict(full, x, tol=1e300)

    def test_full_f_readers_refuse_the_formed_rows(self):
        full, formed = sc_for(2, 4, 2), liealg.formed_structure_constants(2, 4, 2)
        m = se.MetricSpec.from_x(full, (1.0, 2.0, 1.0, 0.5))
        gamma = se.levi_civita(full, m)
        for read in (lambda: se.levi_civita(formed, m), lambda: ricci_fast(gamma, formed),
                     lambda: se.riemann(np.asarray(gamma), formed)):
            with pytest.raises(ValueError, match="formed rows"):
                read()

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_f_pattern_is_closed_under_the_ricci_partners(self, scheme, n, p):
        # _ricci_diagonal looks up (e, a, c) and (a, e, c) of each entry (a, c, e)
        # in f's keys: both must be entries of f
        sc = sc_for(scheme, n, p)
        c, a, b = sc.nonzeros.index
        keys = {tuple(t) for t in zip(c.tolist(), a.tolist(), b.tolist())}
        assert {(e, x, y) for x, y, e in keys} == keys
        assert {(y, x, e) for x, y, e in keys} == keys

    @pytest.mark.parametrize("scheme,n,p", ORACLE_CONFIGS)
    def test_row_shares_are_equal_on_each_orbit(self, scheme, n, p, rng):
        # the row oracle and the table's generator form one row per class and
        # weight it by the class size; that is exact only if every row of a
        # class has one share
        sc = sc_for(scheme, n, p)
        for _ in range(3):
            m = metric(scheme, n, p, random_x(rng, sc.num_classes))
            shares = row_shares(se.riemann(se.levi_civita(sc, m), sc), m)
            for c in np.unique(sc.class_of):
                members = shares[sc.class_of == c]
                npt.assert_allclose(members, members[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scheme,n,p", [(1, 5, None), (2, 5, 2), (2, 4, 1), (2, 4, 4)])
    def test_one_riemann_row_per_class(self, scheme, n, p, rng, monkeypatch):
        # the row oracle of tests/test_riemann_table.py, which the table replaced
        sc = sc_for(scheme, n, p)
        m = metric(scheme, n, p, random_x(rng, sc.num_classes))
        formed = []
        riemann_rows = row_oracle._riemann_rows

        def recording(gamma, sc, rows):
            formed.append(np.array(rows))
            return riemann_rows(gamma, sc, rows)

        monkeypatch.setattr(row_oracle, "_riemann_rows", recording)
        row_oracle.rows_norm_sq(sc, m)
        rows = np.concatenate(formed)
        npt.assert_array_equal(sc.class_of[rows], np.unique(sc.class_of))

    @pytest.mark.parametrize("scheme,n,p", RICCI_ROW_CONFIGS)
    def test_riemann_norm_sq_is_the_one_block_sum(self, scheme, n, p, rng, monkeypatch):
        sc = sc_for(scheme, n, p)
        first, _ = sc.class_rows
        riemann_rows = row_oracle._riemann_rows
        formed = []

        def recording(gamma, sc, rows):
            formed.append(len(rows))
            return riemann_rows(gamma, sc, rows)

        monkeypatch.setattr(row_oracle, "_riemann_rows", recording)
        for _ in range(2):
            m = metric(scheme, n, p, random_x(rng, sc.num_classes))
            gamma = se.levi_civita(sc, m)
            expected = one_block_norm_sq(gamma, sc, m)
            formed.clear()
            assert row_oracle.rows_norm_sq(sc, m) == expected
            assert formed == [first.size]
            with monkeypatch.context() as tiny:
                tiny.setattr(row_oracle, "_RIEMANN_TERM_BUDGET", 1)  # one block per row
                formed.clear()
                assert row_oracle.rows_norm_sq(sc, m) == expected
                assert formed == [1] * first.size

    def test_riemann_keys_beyond_int64_raise(self):
        def one_row(D):
            """The terms of row 0 of an empty connection on a synthetic dimension D."""
            empty = np.zeros(0, dtype=np.intp)
            nothing = Nonzeros((D, D, D), (empty,) * 3, np.zeros(0))
            sc = StructureConstants(nonzeros=nothing, gram_diag=np.ones(D), scheme=1,
                                    n=0, p=None, class_of=np.zeros(1, dtype=np.intp))
            return row_oracle._riemann_rows(nothing, sc, np.array([0]))

        assert one_row(2**21)[0].size == 0  # D^3 keys, the largest 2^63 - 1
        with pytest.raises(ValueError, match="overflow int64"):
            one_row(2**21 + 1)

    @pytest.mark.parametrize("scheme,n,p", [(1, 4, None), (2, 5, 2)])
    def test_riemann_nonzeros_are_the_dense_entries(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        m = metric(scheme, n, p, random_x(rng, sc.num_classes))
        gamma = se.levi_civita(sc, m)
        dense = se.riemann(gamma, sc)
        i = np.arange(sc.d)
        upper = i[None, None, :, None] < i[None, None, None, :]
        # every row's terms, summed per entry: the entries with a < b
        riem = Nonzeros.from_sums(dense.shape, *row_oracle._riemann_rows(gamma, sc, i))
        npt.assert_allclose(np.asarray(riem), dense * upper,
                            rtol=0, atol=1e-12 * np.abs(dense).max())

    def test_connection_lives_on_the_support_of_f(self, rng):
        sc = sc_for(2, 5, 3)
        gamma = se.levi_civita(sc, metric(2, 5, 3, random_x(rng, 4)))
        assert set(zip(*gamma.index)) <= set(zip(*sc.nonzeros.index))
        # so v_e = Gamma^a_ae, a term of the Ricci contraction, is 0
        assert not np.any(gamma.index[0] == gamma.index[1])

    @pytest.mark.parametrize("n", [12, 16, 20, 24])
    def test_second_family_I1_beyond_the_dense_oracle(self, n):
        # the dense Riemann tensor would take 1.1 GB at n = 12, 34 GB at n = 16
        # and 875 GB at n = 24
        X = (3 * n + 2) / (n - 2)
        I1_formula = (2 * n * n + 3 * n + 2) * (n - 1) * (3 * n + 4) / (n * (5 * n + 6))
        sc = sc_for(1, n)
        assert se.invariant_I1(sc, (X, 1.0, X)) == pytest.approx(I1_formula, rel=1e-8)


class TestEinsteinResidual:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_biinvariant_ricci_proportional_to_metric(self, n):
        sc = sc_for(1, n)
        m = metric(1, n, None, (1, 1, 1))
        ric = ricci_fast(se.levi_civita(sc, m), sc)
        npt.assert_allclose(ric, (n / 8.0) * np.diag(m.g), atol=1e-10)

    def test_second_family_n4(self):
        residual, lam = se.einstein_residual(sc_for(1, 4), (7, 1, 7))
        assert residual < 1e-10
        assert lam == pytest.approx(13 / 98, rel=1e-12)

    def test_second_family_n3(self):
        residual, lam = se.einstein_residual(sc_for(1, 3), (11, 1, 11))
        assert residual < 1e-10
        assert lam == pytest.approx(63 / 968, rel=1e-12)

    def test_generic_point_not_einstein(self):
        residual, _ = se.einstein_residual(sc_for(1, 3), (1, 2, 1))
        assert residual > 1e-3

    def test_nonfinite_curvature_is_a_value_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="curvature is not representable"):
                se.einstein_residual(sc_for(1, 3), (1e-200, 1.0, 1e-200))


class TestInvariantI1:
    def test_biinvariant_n5(self):
        assert se.invariant_I1(sc_for(1, 5), (1, 1, 1)) \
            == pytest.approx(24.0, rel=1e-10)

    def test_second_family_values(self):
        assert se.invariant_I1(sc_for(1, 3), (11, 1, 11)) \
            == pytest.approx(754 / 63, rel=1e-10)
        assert se.invariant_I1(sc_for(1, 4), (7, 1, 7)) \
            == pytest.approx(276 / 13, rel=1e-10)

    def test_undefined_off_shell(self):
        with pytest.raises(ValueError, match="not Einstein"):
            se.invariant_I1(sc_for(1, 3), (1, 2, 1))

    def test_negative_lambda_is_not_einstein(self):
        # the residual is within tol, but lambda = -8: no Einstein metric, no I1
        with pytest.raises(ValueError, match="not Einstein"):
            se.invariant_I1(sc_for(1, 2), (1.0, 1.0, 100.0), tol=1e9)

    def test_negative_scale_is_a_value_error(self):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            se.invariant_I1(sc_for(1, 4), (-7.0, -1.0, -7.0))
        # c x for a scale c that is not positive, or overflows: 1e308 is
        # finite and > 0, but 11 c is not finite
        for c in (-1.0, 0.0, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="finite and strictly positive"):
                se.invariant_I1(sc_for(1, 3), (11 * c, c, 11 * c))

    def test_lambda_underflow_is_a_value_error(self):
        # lambda ~ 6.5e-302, so lambda^2 would underflow to 0 at this scale;
        # the verdict's exact rescaling gives the I1 of (11, 1, 11)
        sc = sc_for(1, 3)
        base = se.invariant_I1(sc, (11, 1, 11))
        I1 = se.invariant_I1(sc, (11e300, 1e300, 11e300))
        assert I1 == pytest.approx(base, rel=1e-12)
        assert I1 == pytest.approx(754 / 63, rel=1e-12)  # its closed form

    @pytest.mark.parametrize("scale", [1e-160, 1e150])
    def test_unrepresentable_scale_is_a_value_error(self, scale):
        # |Riem|^2 would overflow to inf at 1e-160 and underflow to 0 at 1e150;
        # the verdict's exact rescaling gives the I1 of (11, 1, 11)
        sc = sc_for(1, 3)
        base = se.invariant_I1(sc, (11, 1, 11))
        assert se.invariant_I1(sc, (11 * scale, scale, 11 * scale)) \
            == pytest.approx(base, rel=1e-12)

    def test_riem_norm_scaling(self):
        sc = sc_for(1, 3)
        m = metric(1, 3, None, (1.0, 1.0, 1.0))
        m2 = metric(1, 3, None, (2.0, 2.0, 2.0))
        r1 = se.riem_norm_sq(se.riemann(se.levi_civita(sc, m), sc), m)
        r2 = se.riem_norm_sq(se.riemann(se.levi_civita(sc, m2), sc), m2)
        assert r2 == pytest.approx(r1 / 4.0, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(c=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    def test_scale_invariance(self, c):
        sc = sc_for(1, 3)
        base = se.invariant_I1(sc, (11, 1, 11))
        scaled = se.invariant_I1(sc, (11 * c, c, 11 * c))
        assert scaled == pytest.approx(base, rel=1e-9)


def verdict_points():
    """The scheme-1 second family at n = 3..6 and the scheme-2 branch roots at (5,2), (6,3)."""
    from su_einstein.solver import branch_x1, branch_x4_lambda

    points = []
    for n in range(3, 7):
        X = (3 * n + 2) / (n - 2)
        points.append((1, n, None, (X, 1.0, X)))
    for n, p in ((5, 2), (6, 3)):
        for sign in (1, -1):
            x1 = branch_x1(n, p, sign)
            points.append((2, n, p, (x1, (n - p) / p * x1, 1.0, branch_x4_lambda(n, p, x1)[0])))
    return points


def off_shell_points():
    """Points that are not Einstein: a generic one per scheme, and scheme 1 at
    n = 3, x = (1, 100, 1), where lambda < 0."""
    return [(1, 3, None, (1.0, 2.0, 1.0)), (1, 3, None, (1.0, 100.0, 1.0)),
            (2, 5, 2, (1.3, 0.7, 1.0, 0.2))]


def fit_at_the_metric(sc, x):
    """(residual, lambda, I1) of the Einstein fit at the frame metric of x
    itself, with no rescaling: with r = Ric_cc / g_c on the Ricci diagonal,
    lambda is the g-trace mean of r, and the residual is max |r - lambda| /
    lambda (over the largest |r| where lambda <= 0).  I1 is None unless the
    residual is within the default tol and lambda > 0."""
    m = se.MetricSpec.from_x(sc, x)
    first, size = sc.class_rows
    r = curvature._ricci_diagonal(sc, m) / m.g[first]
    lam = float((size * r).sum()) / sc.d
    residual = float(np.abs(r - lam).max() / (lam if lam > 0 else np.abs(r).max()))
    if not (residual <= curvature.DEFAULT_EINSTEIN_TOL and lam > 0):
        return residual, lam, None
    return residual, lam, riemann_norm_sq(sc, m) / lam**2


def closed_form_points(n):
    """(scheme, p, x) of every closed-form family at n: scheme 1's bi-invariant
    metric and second family, and at four splits (p = 1, where the su(p)
    class is empty, two middle ones and p = n - 1, where the su(q) class is)
    scheme 2's bi-invariant metric and both branches."""
    from su_einstein.solver import branch_x1, branch_x4_lambda

    X = (3 * n + 2) / (n - 2)
    points = [(1, None, (1.0, 1.0, 1.0)), (1, None, (X, 1.0, X))]
    for p in (1, n // 2 - 1, n // 2, n - 1):
        q = n - p
        points.append((2, p, (1.0, 1.0, 1.0, 2.0 / (p * q * n))))
        for sign in (1, -1):
            x1 = branch_x1(n, p, sign)
            points.append((2, p, (x1, q / p * x1, 1.0, branch_x4_lambda(n, p, x1)[0])))
    return points


class TestEinsteinVerdict:
    @pytest.mark.parametrize("scheme,n,p,x", verdict_points() + off_shell_points())
    def test_same_bits_at_every_scale(self, scheme, n, p, x):
        # the verdict against the fit at the metric itself, not at x * 2^-k
        sc = sc_for(scheme, n, p)
        residual, lam, I1 = fit_at_the_metric(sc, x)
        assert se.einstein_verdict(sc, x) == (residual, lam, I1)
        for e in (500, -500, 1000, -1000):  # lambda^2 leaves the float range at 2^+-1000
            scaled = tuple(np.ldexp(t, e) for t in x)
            assert se.einstein_verdict(sc, scaled) == (residual, np.ldexp(lam, -e), I1)

    @pytest.mark.parametrize("n", [8, 24, 40])
    def test_a_perturbed_closed_form_is_not_einstein(self, n):
        # every closed form is Einstein, and moving the constant of any nonempty
        # class but the gauge one (x2 = 1 in scheme 1, x3 = 1 in scheme 2) by
        # 1e-6 makes it not Einstein, up to n = 40 where an absolute residual
        # had lost its margin.  At p = 1 the su(p) class is empty and x1
        # multiplies nothing
        for scheme, p, x in closed_form_points(n):
            sc = sc_for(scheme, n, p)
            assert se.einstein_verdict(sc, x)[2] is not None, (scheme, p, x)
            first, _ = sc.class_rows
            gauge = 1 if scheme == 1 else 2
            for k in sorted(set(sc.class_of[first].tolist()) - {gauge}):
                moved = list(x)
                moved[k] *= 1 + 1e-6
                residual, _, I1 = se.einstein_verdict(sc, moved)
                assert I1 is None and residual > 1e-8, (scheme, p, k, residual)

    @pytest.mark.parametrize("scheme,n,p,x", verdict_points())
    def test_views_give_the_verdict_bits(self, scheme, n, p, x):
        sc = sc_for(scheme, n, p)
        for e in (0, 500, -500, 1000, -1000):
            scaled = tuple(np.ldexp(t, e) for t in x)
            residual, lam, I1 = se.einstein_verdict(sc, scaled)
            assert se.einstein_residual(sc, scaled) == (residual, lam)
            assert se.invariant_I1(sc, scaled) == I1

    def test_lambda_beyond_the_float_range_is_a_value_error(self):
        # lambda at the unit scale is finite; scaled back by 2^996 it overflows
        with pytest.raises(ValueError, match="curvature is not representable"):
            se.einstein_verdict(sc_for(1, 3), (1e-300, 1e-310, 1e-300))

    def test_span_beyond_the_float_range_is_a_value_error(self):
        with pytest.raises(ValueError, match="orders of magnitude"):
            se.einstein_verdict(sc_for(1, 3), (1e308, 1.0, 1e-308))

    def test_nonfinite_curvature_is_a_value_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="curvature is not representable"):
                se.einstein_verdict(sc_for(1, 3), (1e-200, 1.0, 1e-200))

    def test_unrepresentable_I1_is_a_value_error(self):
        # residual and lambda are finite, |Riem|^2 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="I1 is not representable"):
                se.einstein_verdict(sc_for(1, 3), (1.0, 1e-110, 1.0), tol=1e300)

    def test_negative_lambda_is_not_einstein(self):
        residual, lam, I1 = se.einstein_verdict(sc_for(1, 2), (1.0, 1.0, 100.0), tol=1e9)
        assert residual <= 1e9 and lam == pytest.approx(-8.0, rel=1e-12)
        assert I1 is None


class TestEngineMatchesEquationSystems:
    """Class Ricci eigenvalues == the left-hand sides of the systems Newton solves
    (``scheme*_system`` at lambda = 0)."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_scheme1(self, n, rng):
        sc = sc_for(1, n)
        for _ in range(10):
            x = random_x(rng, 3)
            sigma = se.class_ricci_eigenvalues(sc, x)
            npt.assert_allclose(sigma, scheme1_system(n, *x, 0.0), atol=1e-9)

    @pytest.mark.parametrize("n,p", [(4, 2), (5, 2), (5, 3), (6, 2)])
    def test_scheme2(self, n, p, rng):
        sc = sc_for(2, n, p)
        for _ in range(10):
            x = random_x(rng, 4)
            sigma = se.class_ricci_eigenvalues(sc, x)
            npt.assert_allclose(sigma, scheme2_system(n, p, *x, 0.0), atol=1e-9)

    @pytest.mark.parametrize("scheme,n,p", [(1, n, None) for n in range(2, 9)]
                             + [(2, n, p) for n in range(2, 7) for p in range(n + 1)])
    def test_class_means_of_the_full_ricci(self, scheme, n, p, rng):
        sc = sc_for(scheme, n, p)
        x = random_x(rng, sc.num_classes)
        ric = ricci_fast(se.levi_civita(sc, metric(scheme, n, p, x)), sc)
        sigma = np.diag(ric) / se.frame_weights(sc)
        means = np.array([sigma[sc.class_of == c].mean() if np.any(sc.class_of == c)
                          else np.nan for c in range(sc.num_classes)])
        npt.assert_allclose(se.class_ricci_eigenvalues(sc, x), means,
                            rtol=1e-13, atol=0, equal_nan=True)

    def test_einstein_iff_sigma_equals_lambda_x(self):
        sc = sc_for(1, 4)
        x = (7.0, 1.0, 7.0)
        sigma = se.class_ricci_eigenvalues(sc, x)
        _, lam = se.einstein_residual(sc, x)
        npt.assert_allclose(sigma, lam * np.array(x), atol=1e-12)
