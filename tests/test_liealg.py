"""Generator bases: construction, Gram data, structure-constant identities."""

import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest

from su_einstein import (
    GeneratorBasis,
    build_basis,
    build_scheme1_basis,
    build_scheme2_basis,
    exact_validate,
    frame_weights,
    liealg,
    structure_constants,
    validate_basis,
)
from su_einstein.sparse import Nonzeros
from conftest import formed_entries, sc_for

SQ2 = np.sqrt(2.0)


def gram_diagonal(basis):
    """Diagonal of G_ab = Re tr(T_a T_b) (the bases are trace-orthogonal)."""
    T = basis.generators
    return np.real(np.einsum("aij,aji->a", T, T))


def lowered(sc):
    """Fully lowered tensor f_abc = f^e_ab G_ec (totally antisymmetric), dense."""
    return np.moveaxis(sc.f, 0, -1) * sc.gram_diag


def counted_sizes(basis):
    """The class sizes of a built basis, counted off its class labels."""
    classes = len(liealg.class_sizes(basis.scheme, basis.n, basis.p))
    return tuple(np.bincount(basis.class_of, minlength=classes).tolist())


def diag_mix_reference(n):
    """Independent oracle: the diagonal-mix rows built directly from P and Q."""
    Q = np.zeros((n, n))
    for j in range(1, n):
        Q[j - 1, :j] = 1.0 / np.sqrt(j * (j + 1))
        Q[j - 1, j] = -j / np.sqrt(j * (j + 1))
    Q[n - 1, :] = 1.0 / np.sqrt(n)
    P = np.zeros((n, n))
    for i in range(n - 1):
        for j in range(n - 1):
            P[i, j] = 2.0 / (n - 1) - (1.0 if i == j else 0.0)
    P[n - 1, n - 1] = 1.0
    return P @ Q


def dict_description(scheme, n, p, mix_rows, i):
    """Oracle of ``liealg._description``: the generators as
    (class, {(row, col): coefficient}) entries in basis order, with the
    imaginary unit i and ``mix_rows(k)``, the diagonal mixes of k indices."""
    def offdiag(pairs, sym, anti):
        return ([(sym, {(A, B): 1, (B, A): 1}) for A, B in pairs]
                + [(anti, {(A, B): i, (B, A): -i}) for A, B in pairs])

    def block(idxs, sym, anti, mix):
        entries = offdiag(list(itertools.combinations(idxs, 2)), sym, anti)
        if len(idxs) >= 2:
            entries += [(mix, {(j, j): v for j, v in zip(idxs, row)})
                        for row in mix_rows(len(idxs))]
        return entries

    if scheme == 1:
        return block(range(n), 0, 1, 2)
    entries = block(range(p), 0, 0, 0) + block(range(p, n), 1, 1, 1)
    entries += offdiag(list(itertools.product(range(p), range(p, n))), 2, 2)
    if p and n - p:
        entries.append((3, {(a, a): n - p if a < p else -p for a in range(n)}))
    return entries


def dict_generators(entries, n, dtype):
    """The entries written one by one into (d, n, n) generators, and their classes."""
    T = np.zeros((len(entries), n, n), dtype=dtype)
    for a, (_, coeffs) in enumerate(entries):
        for (row, col), value in coeffs.items():
            T[a, row, col] = value
    return T, np.array([c for c, _ in entries], dtype=int)


class TestScheme1Basis:
    def test_su2_generators_explicit(self):
        basis = build_scheme1_basis(2)
        assert basis.dim == 3
        npt.assert_array_equal(basis.generators[0], np.array([[0, 1], [1, 0]], dtype=complex))
        npt.assert_array_equal(basis.generators[1], np.array([[0, 1j], [-1j, 0]], dtype=complex))
        # for n=2 the P block is the 1x1 identity, so the diagonal generator
        # is just the first Q row applied to (E_11, E_22)
        npt.assert_allclose(basis.generators[2], np.diag([1 / SQ2, -1 / SQ2]).astype(complex),
                            atol=1e-15)

    def test_su3_class_sizes(self):
        basis = build_scheme1_basis(3)
        assert counted_sizes(basis) == (3, 3, 2)
        assert basis.dim == 8

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dimension_and_class_sizes(self, n):
        basis = build_scheme1_basis(n)
        m = n * (n - 1) // 2
        assert basis.dim == n * n - 1
        assert counted_sizes(basis) == (m, m, n - 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_diag_mix_rows_match_reference(self, n):
        basis = build_scheme1_basis(n)
        ref = diag_mix_reference(n)
        diag_gens = basis.generators[basis.class_of == 2]
        for j, gen in enumerate(diag_gens):
            npt.assert_allclose(np.diag(gen).real, ref[j], atol=1e-14)
            npt.assert_allclose(np.diag(gen).imag, 0.0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_diag_mix_rows_orthonormal(self, n):
        rows = diag_mix_reference(n)[: n - 1]
        npt.assert_allclose(rows @ rows.T, np.eye(n - 1), atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_diag_trace_norm_sums_to_n_minus_1(self, n):
        basis = build_scheme1_basis(n)
        diag_gram = gram_diagonal(basis)[basis.class_of == 2]
        npt.assert_allclose(diag_gram.sum(), n - 1, atol=1e-13)

    def test_rejects_n_below_2(self):
        with pytest.raises(ValueError):
            build_scheme1_basis(1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_hermitian_traceless(self, n):
        T = build_scheme1_basis(n).generators
        npt.assert_allclose(T, np.conj(np.transpose(T, (0, 2, 1))), atol=0)
        npt.assert_allclose(np.einsum("aii->a", T), 0.0, atol=1e-15)

    def test_su3_gram_diagonal(self):
        basis = build_scheme1_basis(3)
        npt.assert_allclose(gram_diagonal(basis), [2, 2, 2, 2, 2, 2, 1, 1], atol=1e-14)


class TestScheme2Basis:
    def test_n4_p2_class_sizes(self):
        basis = build_scheme2_basis(4, 2)
        assert counted_sizes(basis) == (3, 3, 8, 1)
        assert basis.dim == 15

    def test_n5_p3_class_sizes(self):
        basis = build_scheme2_basis(5, 3)
        assert counted_sizes(basis) == (8, 3, 12, 1)
        assert basis.dim == 24

    def test_balance_generator_n4_p2(self):
        basis = build_scheme2_basis(4, 2)
        bal = basis.generators[basis.class_of == 3][0]
        npt.assert_array_equal(bal, np.diag([2, 2, -2, -2]).astype(complex))
        assert np.trace(bal) == 0
        assert np.real(np.trace(bal @ bal)) == 16

    def test_gram_balance_entry(self):
        basis = build_scheme2_basis(4, 2)
        gram = gram_diagonal(basis)
        assert gram[basis.class_of == 3][0] == pytest.approx(16.0, abs=1e-14)

    def test_degenerate_splits(self):
        # p = 1: the su(1) block has no generators; p = 0: only the other block
        assert counted_sizes(build_scheme2_basis(5, 1)) == (0, 15, 8, 1)
        assert counted_sizes(build_scheme2_basis(5, 0)) == (0, 24, 0, 0)
        assert counted_sizes(build_scheme2_basis(5, 5)) == (24, 0, 0, 0)

    def test_p_equal_n_matches_scheme1(self):
        b1 = build_scheme1_basis(4)
        b2 = build_scheme2_basis(4, 4)
        npt.assert_array_equal(b1.generators, b2.generators)
        f1 = structure_constants(b1).f
        f2 = structure_constants(b2).f
        npt.assert_allclose(f1, f2, atol=0)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            build_scheme2_basis(4, 5)
        with pytest.raises(ValueError):
            build_scheme2_basis(4, -1)


class TestClassSizes:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_formula_matches_the_built_basis(self, n):
        assert liealg.class_sizes(1, n) == counted_sizes(build_basis(1, n))
        for p in range(n + 1):
            assert liealg.class_sizes(2, n, p) == counted_sizes(build_basis(2, n, p))


class TestStructureConstants:
    def test_su2_values(self):
        sc = sc_for(1, 2)
        # the commutator of the two off-diagonal generators lies along the
        # diagonal one with coefficient of magnitude 2*sqrt(2)
        assert abs(sc.f[2, 0, 1]) == pytest.approx(2 * SQ2, rel=1e-15)
        assert abs(sc.f[0, 1, 2]) == pytest.approx(SQ2, rel=1e-15)
        assert abs(sc.f[1, 2, 0]) == pytest.approx(SQ2, rel=1e-15)

    @pytest.mark.parametrize("scheme,n,p", [(1, 2, None), (1, 4, None), (2, 5, 2)])
    def test_antisymmetry_and_diagonal_zero(self, scheme, n, p):
        sc = sc_for(scheme, n, p)
        npt.assert_allclose(sc.f, -np.transpose(sc.f, (0, 2, 1)), atol=0)
        npt.assert_allclose(np.einsum("caa->ca", sc.f), 0.0, atol=0)

    def test_su3_lowered_totally_antisymmetric(self):
        low = lowered(sc_for(1, 3))
        for perm, sign in ((( 1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                           ((1, 2, 0), 1), ((2, 0, 1), 1)):
            npt.assert_allclose(low, sign * np.transpose(low, perm), atol=1e-12)

    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 5, None), (2, 4, 2), (2, 6, 3)])
    def test_jacobi(self, scheme, n, p):
        f = sc_for(scheme, n, p).f
        jac = np.einsum("eab,dec->abcd", f, f, optimize=True)
        jac += np.einsum("ebc,dea->abcd", f, f, optimize=True)
        jac += np.einsum("eca,deb->abcd", f, f, optimize=True)
        assert np.abs(jac).max() < 1e-12

    @pytest.mark.parametrize("scheme,n,p", [(1, 4, None), (2, 5, 3)])
    def test_commutators_reproduced(self, scheme, n, p):
        # f must express every commutator inside the span of the basis
        basis = build_basis(scheme, n, p)
        sc = sc_for(scheme, n, p)
        T = basis.generators
        comm = np.einsum("aij,bjk->abik", T, T) - np.einsum("bij,ajk->abik", T, T)
        rebuilt = 1j * np.einsum("cab,cij->abij", sc.f, T)
        npt.assert_allclose(comm, rebuilt, atol=1e-12)

    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 6, None), (2, 5, 2), (2, 6, 6)])
    def test_matches_commutator_projection(self, scheme, n, p):
        # oracle: project dense commutators with the inverse Gram matrix
        basis = build_basis(scheme, n, p)
        T = basis.generators
        gram = np.real(np.einsum("aij,bji->ab", T, T))
        comm = np.einsum("aij,bjk->abik", T, T) - np.einsum("bij,ajk->abik", T, T)
        proj = np.real(np.einsum("abij,dji->abd", -1.0j * comm, T))
        dense = np.einsum("cd,abd->cab", np.linalg.inv(gram), proj)
        npt.assert_allclose(structure_constants(basis).f, dense, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("scheme,n,p", [(1, n, None) for n in range(2, 10)]
                             + [(2, n, p) for n in range(2, 10) for p in range(n + 1)])
    def test_zeros_are_exact(self, scheme, n, p):
        basis = build_basis(scheme, n, p)
        values = np.abs(structure_constants(basis).nonzeros.values)
        assert values.size and values.min() >= 1e-12

    def test_singular_gram_rejected(self):
        T = np.zeros((2, 2, 2), dtype=complex)
        T[0] = [[0, 1], [1, 0]]
        T[1] = [[0, 2], [2, 0]]  # linearly dependent
        bad = GeneratorBasis(n=2, scheme=1, p=None, generators=T,
                             class_of=np.array([0, 0]))
        with pytest.raises(ValueError, match="singular"):
            structure_constants(bad)


class TestValidateBasis:
    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 6, None), (2, 4, 2), (2, 7, 3)])
    def test_constructed_bases_pass(self, scheme, n, p):
        basis = build_basis(scheme, n, p)
        report = validate_basis(basis)
        assert report.passed, report.problems

    def test_su3_report_values(self):
        report = validate_basis(build_scheme1_basis(3))
        npt.assert_allclose(report.gram_diagonal, [2, 2, 2, 2, 2, 2, 1, 1], atol=1e-14)
        assert report.class_sizes == (3, 3, 2)

    def test_corrupted_generator_flagged(self):
        basis = build_scheme1_basis(3)
        T = basis.generators.copy()
        T[0, 0, 0] = 1.0  # nonzero trace, breaks Hermitian tracelessness
        bad = GeneratorBasis(n=3, scheme=1, p=None, generators=T,
                             class_of=basis.class_of.copy())
        report = validate_basis(bad)
        assert not report.passed
        assert any("trace" in p for p in report.problems)

    @pytest.mark.parametrize("index,problem", [
        ((0, 0, 1), "non-Hermitian generator (dev "),
        ((6, 0, 0), "generator with nonzero trace (dev "),
        (1, "Gram matrix not diagonal (dev "),
    ], ids=["hermiticity", "trace", "gram"])
    def test_defect_of_1e9_flagged(self, index, problem):
        """+1e-9 on one off-diagonal entry, on one diagonal entry, or T_1 += 1e-9 T_0:
        each fails validation on its own check, well below a 1e-6 tolerance."""
        basis = build_scheme1_basis(3)
        T = basis.generators.copy()
        T[index] += 1e-9 * (T[0] if index == 1 else 1)
        bad = GeneratorBasis(n=3, scheme=1, p=None, generators=T,
                             class_of=basis.class_of.copy())
        report = validate_basis(bad)
        assert report.passed is False
        assert any(p.startswith(problem) for p in report.problems), report.problems


def dense_identity_deviations(sc):
    """The dense oracle: f antisymmetry, Jacobi sum and lowered-f antisymmetry
    from the d^3 array f and d^4 einsums."""
    f = sc.f
    f_anti = np.abs(f + np.transpose(f, (0, 2, 1))).max()
    jac = np.einsum("eab,dec->abcd", f, f)
    jac += np.einsum("ebc,dea->abcd", f, f)
    jac += np.einsum("eca,deb->abcd", f, f)
    low = lowered(sc)
    low_anti = max(np.abs(low + np.einsum("bac->abc", low)).max(),
                   np.abs(low + np.einsum("acb->abc", low)).max())
    return f_anti, np.abs(jac).max(), low_anti


def phase_rotated(basis, a, angle=0.1):
    """The basis with generator a multiplied by exp(i angle): still
    trace-orthogonal with a positive Gram diagonal, but not Hermitian."""
    T = basis.generators.copy()
    T[a] *= np.exp(1j * angle)
    return GeneratorBasis(n=basis.n, scheme=basis.scheme, p=basis.p, generators=T,
                          class_of=basis.class_of.copy())


class TestIdentityDeviations:
    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 5, None), (2, 5, 2), (2, 6, 3)])
    def test_match_the_dense_oracle(self, scheme, n, p):
        basis = build_basis(scheme, n, p)
        report = validate_basis(basis)
        npt.assert_allclose([report.f_antisymmetry_dev, report.jacobi_dev,
                             report.lowered_antisymmetry_dev],
                            dense_identity_deviations(structure_constants(basis)), atol=1e-14)

    @pytest.mark.parametrize("a", [0, 7, 13])
    def test_perturbed_basis_is_flagged(self, a):
        bad = phase_rotated(build_scheme1_basis(4), a)
        report = validate_basis(bad)
        expected = dense_identity_deviations(structure_constants(bad))
        got = [report.f_antisymmetry_dev, report.jacobi_dev, report.lowered_antisymmetry_dev]
        npt.assert_allclose(got, expected, rtol=1e-12)
        assert min(got) > 0.1
        assert not report.passed
        for prefix in ("f not antisymmetric (dev ", "Jacobi identity violated (dev ",
                       "lowered f not totally antisymmetric (dev "):
            assert any(p.startswith(prefix) for p in report.problems), report.problems


def synthetic_sc(d):
    """Structure constants of dimension d with no nonzero f: a key range to test."""
    empty = np.zeros(0, dtype=np.intp)
    return liealg.StructureConstants(
        nonzeros=Nonzeros((d, d, d), (empty, empty, empty), np.zeros(0)),
        gram_diag=np.ones(d), scheme=1, n=0, p=None, class_of=np.zeros(d, dtype=np.intp))


def jacobi_sums(sc, monkeypatch, budget):
    """The three deviations, and the Jacobi keys and sums of all blocks, in key order."""
    calls = []
    sum_by_key = liealg.sum_by_key

    def recording(key, values):
        calls.append(sum_by_key(key, values))
        return calls[-1]

    with monkeypatch.context() as patch:
        patch.setattr(liealg, "sum_by_key", recording)
        patch.setattr(liealg, "_JACOBI_PAIR_BUDGET", budget)
        deviations = np.array(liealg._identity_deviations(sc))
    jacobi = calls[1:-2]  # between the f antisymmetry sum and the two lowered ones
    keys = np.concatenate([key for key, _, _ in jacobi])
    totals = np.concatenate([total for _, total, _ in jacobi])
    order = np.argsort(keys)
    assert np.unique(keys).size == keys.size  # the blocks share no key
    return deviations, len(jacobi), keys[order], totals[order]


class TestJacobiBlocks:
    @pytest.mark.parametrize("scheme,n,p", [(1, n, None) for n in range(3, 9)]
                             + [(2, n, p) for n in range(2, 7) for p in range(n + 1)])
    def test_blocks_of_d_give_the_one_block_floats(self, scheme, n, p, monkeypatch):
        sc = sc_for(scheme, n, p)
        whole = jacobi_sums(sc, monkeypatch, 2**19)
        assert whole[1] == 1
        assert jacobi_sums(sc, monkeypatch, 1)[1] == sc.d  # one block per d
        for budget in (1, 500):  # and a few d per block from n = 4
            blocked = jacobi_sums(sc, monkeypatch, budget)
            for got, want in zip(blocked[::2], whole[::2]):
                assert got.tobytes() == want.tobytes()
            assert blocked[3].tobytes() == whole[3].tobytes()

    @pytest.mark.parametrize("a", [0, 7, 13])
    def test_blocks_of_d_give_the_one_block_floats_off_the_identity(self, a, monkeypatch):
        sc = structure_constants(phase_rotated(build_scheme1_basis(4), a))
        whole = jacobi_sums(sc, monkeypatch, 2**19)
        assert whole[0][1] > 0.1
        blocked = jacobi_sums(sc, monkeypatch, 50)
        for got, want in zip(blocked[::2], whole[::2]):
            assert got.tobytes() == want.tobytes()
        assert blocked[3].tobytes() == whole[3].tobytes()

    def test_jacobi_keys_beyond_int64_raise(self):
        # su(n) has d = n^2 - 1 generators; the d^4 Jacobi keys fit in int64
        # up to n = 234
        assert liealg._identity_deviations(synthetic_sc(234**2 - 1)) == (0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="overflow int64"):
            liealg._identity_deviations(synthetic_sc(235**2 - 1))


# the bases that the sympy materialization is checked on
EXACT_CONFIGS = ([(1, n, None) for n in range(2, 6)]
                 + [(2, n, p) for n in range(2, 6) for p in range(n + 1)])


class TestOneDescription:
    @pytest.mark.parametrize("scheme,n,p", EXACT_CONFIGS)
    def test_sympy_materialization_matches_numpy(self, scheme, n, p):
        basis = build_basis(scheme, n, p)
        T, class_of = liealg._generators(scheme, n, p, exact=True)
        npt.assert_array_equal(class_of, basis.class_of)
        npt.assert_allclose(T.astype(complex), basis.generators, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_build_basis_is_the_scheme_builders(self, n):
        for scheme, p, direct in [(1, None, build_scheme1_basis(n))] + [
                (2, p, build_scheme2_basis(n, p)) for p in range(n + 1)]:
            basis = build_basis(scheme, n, p)
            assert (basis.scheme, basis.n, basis.p) == (scheme, n, p)
            assert basis.generators.tobytes() == direct.generators.tobytes()
            assert basis.class_of.tobytes() == direct.class_of.tobytes()

    def test_build_basis_rejects_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_basis(3, 4, 2)

    def test_one_configuration_builds_its_structure_constants_once(self, monkeypatch):
        from su_einstein import solver

        built, made = [], []
        original = liealg.formed_structure_constants

        def spy(scheme, n, p=None):
            built.append(n)
            made.append(original(scheme, n, p))
            return made[-1]

        monkeypatch.setattr(liealg, "formed_structure_constants", spy)
        records = solver.solve_configuration(2, 5, 2, n_starts=0).records
        assert records and all(r.I1 is not None for r in records)
        assert built == [5]
        _, fresh = formed_entries(structure_constants(build_basis(2, 5, 2)))
        assert made[0].nonzeros.values.tobytes() == fresh.tobytes()


# scheme 1 at n = 2..16, every split with n <= 12, and three larger bases
RULE_CONFIGS = ([(1, n, None) for n in range(2, 17)]
                + [(2, n, p) for n in range(2, 13) for p in range(n + 1)]
                + [(1, 24, None), (2, 20, 3), (1, 40, None)])


class TestDescriptionOracle:
    """The basis against the entries written one by one.  The bracket rule and
    the trace formula would both follow a change to the basis itself, so
    ``TestBracketRule`` cannot see one."""

    @pytest.mark.parametrize("scheme,n,p", RULE_CONFIGS)
    def test_float_basis_is_bit_identical(self, scheme, n, p):
        entries = dict_description(scheme, n, p, lambda k: diag_mix_reference(k)[:k - 1], 1j)
        want, want_class = dict_generators(entries, n, complex)
        got, got_class = liealg._generators(scheme, n, p)
        assert got.tobytes() == want.tobytes()
        assert got_class.tobytes() == want_class.tobytes()

    @pytest.mark.parametrize("scheme,n,p", EXACT_CONFIGS)
    def test_sympy_basis_is_entry_by_entry_equal(self, scheme, n, p):
        import sympy as sp

        num = liealg._Numbers(object, sp.sqrt, sp.Rational, sp.I)
        entries = dict_description(scheme, n, p, lambda k: liealg._diag_mix_rows(k, num), sp.I)
        want, want_class = dict_generators(entries, n, object)
        got, got_class = liealg._generators(scheme, n, p, exact=True)
        assert got.shape == want.shape and np.array_equal(got_class, want_class)
        for have, expected in zip(got.ravel(), want.ravel()):
            assert type(have) is type(expected) and have == expected


class TestBracketRule:
    @pytest.mark.parametrize("scheme,n,p", RULE_CONFIGS)
    def test_bit_identical_to_the_trace_formula(self, scheme, n, p):
        rule = liealg.structure_constants_of(scheme, n, p)
        trace = structure_constants(build_basis(scheme, n, p))
        assert (rule.d, rule.scheme, rule.n, rule.p) == (trace.d, trace.scheme, trace.n, trace.p)
        for got, want in zip(rule.nonzeros.index, trace.nonzeros.index):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rule.nonzeros.values.tobytes() == trace.nonzeros.values.tobytes()
        assert rule.gram_diag.tobytes() == trace.gram_diag.tobytes()
        assert np.array_equal(rule.class_of, trace.class_of)


# RULE_CONFIGS (which holds test_curvature's RICCI_ROW_CONFIGS) and four larger bases
FORMED_CONFIGS = RULE_CONFIGS + [(1, 32, None), (2, 32, 15), (1, 64, None), (2, 64, 31)]


class TestFormedRows:
    """``formed_structure_constants`` is all of f restricted to the entries
    with a formed generator in some slot: the same entries, floats and order."""

    @pytest.mark.parametrize("scheme,n,p", FORMED_CONFIGS)
    def test_the_entries_of_all_of_f_at_the_formed_rows(self, scheme, n, p):
        full = liealg.structure_constants_of(scheme, n, p)
        formed = liealg.formed_structure_constants(scheme, n, p)
        assert (formed.d, formed.scheme, formed.n, formed.p) == (full.d, scheme, n, p)
        assert formed.formed_only and not full.formed_only
        index, values = formed_entries(full)
        for got, want in zip(formed.nonzeros.index, index):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert formed.nonzeros.values.tobytes() == values.tobytes()
        assert formed.gram_diag.tobytes() == full.gram_diag.tobytes()
        assert formed.class_of.tobytes() == full.class_of.tobytes()

    @pytest.mark.parametrize("scheme,n,p,nnz", [(1, 16, None, 1140), (1, 64, None, 13956),
                                                (2, 32, 15, 2958), (2, 64, 31, 9102)])
    def test_about_3_4_n_squared_entries(self, scheme, n, p, nnz):
        # the counts of the formed rows' entries in all of f, at (1, 64) against 1,761,984
        assert liealg.formed_structure_constants(scheme, n, p).nonzeros.nnz == nnz

    def test_full_f_readers_refuse_it(self):
        formed = liealg.formed_structure_constants(1, 4)
        for read in (lambda sc: sc.f, lambda sc: sc.all_of_f(), liealg._identity_deviations):
            with pytest.raises(ValueError, match="formed rows"):
                read(formed)
        assert liealg.structure_constants_of(1, 4).all_of_f().nnz > formed.nonzeros.nnz


def masked_frame_weights(sc):
    """The frame weights by a mask over class_of: 4 G_aa, and 2 (p q n)^2 on
    the balance class of scheme 2."""
    w = 4.0 * sc.gram_diag
    if sc.scheme == 2:
        mask = sc.class_of == 3
        if np.any(mask):
            w[mask] = 2.0 * float(sc.p * (sc.n - sc.p) * sc.n) ** 2
    return w


class TestClassLayout:
    """``class_rows`` is read off ``class_sizes``, so it is pinned here against
    ``class_of`` itself, and a ``class_of`` in another layout is an error: the
    engine forms curvature only at these rows."""

    @pytest.mark.parametrize("scheme,n,p", RULE_CONFIGS)
    def test_class_rows_and_weights_of_both_builders(self, scheme, n, p):
        for sc in (liealg.structure_constants_of(scheme, n, p),
                   structure_constants(build_basis(scheme, n, p))):
            want = np.unique(sc.class_of, return_index=True, return_counts=True)[1:]
            for got, expected in zip(sc.class_rows, want):
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
                assert not got.flags.writeable
            assert frame_weights(sc).tobytes() == masked_frame_weights(sc).tobytes()

    @pytest.mark.parametrize("scheme,n,p", [(1, 4, None), (2, 5, 2), (2, 4, 1)])
    @pytest.mark.parametrize("relabel", [
        lambda c: np.roll(c, 1),        # the same class sizes, out of order
        lambda c: c[::-1].copy(),       # the classes in reverse order
        lambda c: c[:-1].copy(),        # one generator short
        lambda c: np.zeros_like(c),     # one class
    ], ids=["rolled", "reversed", "short", "one-class"])
    def test_class_rows_raise_off_the_layout(self, scheme, n, p, relabel):
        sc = liealg.structure_constants_of(scheme, n, p)
        bad = dataclasses.replace(sc, class_of=relabel(sc.class_of))
        with pytest.raises(ValueError, match="not the class layout"):
            bad.class_rows
        if scheme == 2:  # the balance weight goes at the balance class's row
            with pytest.raises(ValueError, match="not the class layout"):
                frame_weights(bad)


class TestExactValidation:
    @pytest.mark.parametrize("scheme,n,p", [(1, 2, None), (1, 3, None), (2, 3, 2)])
    def test_exact_identities(self, scheme, n, p):
        basis = build_basis(scheme, n, p)
        result = exact_validate(basis)
        assert result["all_passed"], result

    def test_exact_su2_gram(self):
        result = exact_validate(build_scheme1_basis(2))
        assert [int(g) for g in result["gram_diagonal"]] == [2, 2, 1]

    def test_basis_that_differs_from_its_description_fails(self):
        bad = phase_rotated(build_scheme1_basis(3), 2)
        assert not validate_basis(bad).passed
        result = exact_validate(bad)
        assert result["matches_basis"] is False
        assert result["all_passed"] is False
        assert exact_validate(build_scheme1_basis(3))["matches_basis"] is True

    def test_exact_n4(self):
        result = exact_validate(build_scheme2_basis(4, 2))
        assert result["all_passed"], result
        assert int(result["gram_diagonal"][-1]) == 16
