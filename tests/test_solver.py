"""Equation systems, closed forms, Newton iteration and multistart search."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su_einstein as se
from su_einstein import cli, solver
from su_einstein.solver import (
    NEWTON_OUTCOMES,
    branch_x1,
    branch_x4_lambda,
    dedup_records,
    printed_branch_x4_lambda,
    solve_configuration,
)


class TestScheme1System:
    def test_biinvariant_root(self):
        npt.assert_allclose(se.scheme1_system(3, 1, 1, 1, 3 / 8), 0.0, atol=1e-15)

    def test_second_family_root_n4(self):
        npt.assert_allclose(se.scheme1_system(4, 7, 1, 7, 13 / 98), 0.0, atol=1e-12)

    def test_non_solution_point(self):
        assert np.abs(se.scheme1_system(3, 2, 1, 1, 3 / 8)).max() > 1e-2


class TestScheme2System:
    def test_sol1_n5_p3(self):
        npt.assert_allclose(
            se.scheme2_system(5, 3, 1, 1, 1, 2 / 30, 5 / 8), 0.0, atol=1e-15)

    def test_sol1_n4_p2(self):
        npt.assert_allclose(
            se.scheme2_system(4, 2, 1, 1, 1, 1 / 8, 1 / 2), 0.0, atol=1e-15)

    def test_perturbed_x4_breaks_fourth_equation(self):
        res = se.scheme2_system(4, 2, 1, 1, 1, 1.0, 1 / 2)
        assert abs(res[3]) > 1e-2

    @pytest.mark.parametrize("p", [0, 4])
    def test_rejects_degenerate_p(self, p):
        with pytest.raises(ValueError):
            se.scheme2_system(4, p, 1, 1, 1, 1, 1)


class TestJacobians:
    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 5, None), (1, 8, None),
                                            (2, 4, 2), (2, 5, 3), (2, 5, 4), (2, 7, 1),
                                            (2, 2, 1), (2, 6, 3)])
    def test_matches_finite_differences(self, scheme, n, p, rng):
        system = se.EinsteinSystem(scheme, n, p)
        for _ in range(10):
            v = np.exp(rng.uniform(-1, 1, system.size))
            J = system.jacobian(v)
            Jfd = np.zeros_like(J)
            for i in range(system.size):
                h = 1e-6 * max(1.0, abs(v[i]))
                dv = np.zeros(system.size)
                dv[i] = h
                Jfd[:, i] = (system.residual(v + dv) - system.residual(v - dv)) / (2 * h)
            npt.assert_allclose(J, Jfd, atol=5e-6)

    def test_phantom_unknowns_dropped_at_q1(self):
        system = se.EinsteinSystem(2, 5, 4)
        assert system.unknowns == ("x1", "x4", "lambda")
        system = se.EinsteinSystem(2, 5, 1)
        assert system.unknowns == ("x2", "x4", "lambda")


SPLITS = [(n, p) for n in range(2, 9) for p in range(1, n)]


def nonempty_classes(n, p):
    """su(p), su(q), cross, balance: su(k) is empty for k = 1."""
    return [c for c, keep in enumerate((p >= 2, n - p >= 2, True, True)) if keep]


class TestClassLayout:
    @pytest.mark.parametrize("n,p", SPLITS)
    def test_equations_and_unknowns_are_the_classes(self, n, p, rng):
        system = se.EinsteinSystem(2, n, p)
        rows = nonempty_classes(n, p)
        free = [c for c in rows if c != 2]
        assert system.unknowns == tuple(f"x{c + 1}" for c in free) + ("lambda",)
        x = np.ones(4)
        x[free] = np.exp(rng.uniform(-1, 1, len(free)))
        lam = 0.3
        v = np.append(x[free], lam)
        npt.assert_array_equal(system.residual(v),
                               se.scheme2_system(n, p, *x, lam)[rows])

    # named for the pair of methods that full_x replaced, so the ids stay stable
    @pytest.mark.parametrize("n,p", SPLITS)
    def test_unknowns_at_inverts_full_x_lambda(self, n, p, rng):
        system = se.EinsteinSystem(2, n, p)
        free = [c for c in nonempty_classes(n, p) if c != 2]
        v = np.exp(rng.uniform(-1, 1, (5, system.size)))
        expected = np.ones((5, 4))
        expected[:, free] = v[:, :-1]
        full = system.full_x(v)
        assert full.shape == (5, 4) and full.tobytes() == expected.tobytes()
        single = system.full_x(v[0])
        assert single.shape == (4,) and single.tobytes() == expected[0].tobytes()

    @pytest.mark.parametrize("n,p", SPLITS)
    def test_biinvariant_point_is_a_root(self, n, p):
        system = se.EinsteinSystem(2, n, p)
        x = (1.0, 1.0, 1.0, 2.0 / (p * (n - p) * n))
        v = [x[c] for c in nonempty_classes(n, p) if c != 2] + [n / 8.0]
        assert np.abs(system.residual(v)).max() <= 1e-15


def hand_typed_jacobian(scheme, n, p, x, lam):
    """The Jacobian as typed by hand for general x, the oracle of
    ``EinsteinSystem.jacobian``: x is the full x, with 1.0 at the gauge and
    empty classes, and lam a scalar or a column.  The three-class matrix has
    the columns x1, x3, lambda; the four-class one x1, x2, x4, lambda, with a
    row for every class."""
    J = np.zeros(np.shape(lam) + (len(x), len(x)))
    if scheme == 1:
        x1, x2, x3 = x
        J[..., 0, 0] = (n - 2) / 8 * x2 / x1**2 + 0.5 * x1 / (x2 * x3) - lam
        J[..., 0, 1] = -0.25 * x1**2 / (x2 * x3**2) - 0.25 / x2 + 0.25 * x2 / x3**2
        J[..., 0, 2] = -x1
        J[..., 1, 0] = (-(n - 2) / 8 * x2**2 / x1**3 - 0.25 * x2**2 / (x1**2 * x3)
                        + 0.25 * x3 / x1**2 - 0.25 / x3)
        J[..., 1, 1] = -0.25 * x2**2 / (x1 * x3**2) - 0.25 / x1 + 0.25 * x1 / x3**2
        J[..., 1, 2] = -x2
        J[..., 2, 0] = n / 8 * (x2 / x1**2 - 1.0 / x2 - x3**2 / (x1**2 * x2))
        J[..., 2, 1] = n / 8 * 2 * x3 / (x1 * x2) - lam
        J[..., 2, 2] = -x3
        return J
    q = n - p
    x1, x2, x3, x4 = x
    J[..., 0, 0] = q / 4 * x1 - lam
    J[..., 0, 3] = -x1
    J[..., 1, 1] = p / 4 * x2 - lam
    J[..., 1, 3] = -x2
    J[..., 2, :] = (-(p - 1) * (p + 1) / (8 * p), -(q - 1) * (q + 1) / (8 * q),
                    -n**2 / 16, -1.0)
    J[..., 3, 2] = p * q * n**2 / 8 * x4 - lam
    J[..., 3, 3] = -x4
    return J


def transcribed_residual_and_jacobian(scheme, n, p, v):
    """``se.scheme1_system`` or ``se.scheme2_system``, and
    ``hand_typed_jacobian``, at the unknowns v of shape (k,) or (B, k), with
    the gauge constant 1.0 and the rows and columns of the nonempty classes."""
    rows = [0, 1, 2] if scheme == 1 else nonempty_classes(n, p)
    gauge = 1 if scheme == 1 else 2
    free = [c for c in rows if c != gauge]
    x = [1.0] * (3 if scheme == 1 else 4)
    for i, c in enumerate(free):
        x[c] = v[..., i]
    lam = v[..., -1]
    if scheme == 1:
        return se.scheme1_system(n, *x, lam).T, hand_typed_jacobian(1, n, None, x, lam)
    keep = [c - (c > gauge) for c in free] + [3]
    J = hand_typed_jacobian(2, n, p, x, lam)[(Ellipsis, *np.ix_(rows, keep))]
    return se.scheme2_system(n, p, *x, lam)[rows].T, J


def assert_same_bits(a, b):
    """a and b are equal bit for bit where finite, with nan and inf (of the
    same sign) in the same places."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert (np.isnan(a) == np.isnan(b)).all()
    assert (np.isinf(a) == np.isinf(b)).all() and (a[np.isinf(a)] == b[np.isinf(b)]).all()
    finite = np.isfinite(a)
    assert a[finite].tobytes() == b[finite].tobytes()


FOLD_CONFIGS = ([(1, n, None) for n in range(2, 10)]
                + [(2, n, p) for n in range(2, 10) for p in range(1, n)])


class TestGaugeFold:
    """``residual`` and ``jacobian`` read the gauge constant as exactly 1, and
    keep every bit of the transcriptions for general x at the value 1.0."""

    @staticmethod
    def unknowns(size, rng):
        """Rows at magnitudes 1e-150 to 1e150 of either sign; moderate rows;
        rows near the square roots of the overflow and underflow thresholds,
        where the order of a product decides whether it overflows or goes
        subnormal (a multiplication by 0.25 is exact everywhere else); and
        rows with subnormal and near-overflow entries."""
        def signed(magnitudes):
            return magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)
        wide = signed(10.0 ** rng.uniform(-150, 150, (300, size)))
        moderate = np.exp(rng.uniform(-1, 1, (200, size)))
        roots = signed(10.0 ** (rng.choice([-154.0, 154.0], (100, size))
                                + rng.uniform(-0.5, 0.5, (100, size))))
        edge = rng.choice([5e-324, 1e-310, 1e-160, 1e160, 1e308, -1e308], (60, size))
        return np.concatenate([wide, moderate, roots, edge])

    @pytest.mark.parametrize("scheme,n,p", FOLD_CONFIGS)
    def test_residual_and_jacobian_keep_the_transcriptions_bits(self, scheme, n, p, rng):
        system = se.EinsteinSystem(scheme, n, p)
        V = self.unknowns(system.size, rng)
        with np.errstate(all="ignore"):
            R, J = system.residual(V), system.jacobian(V)
            R_ref, J_ref = transcribed_residual_and_jacobian(scheme, n, p, V)
            assert_same_bits(R, R_ref)
            assert_same_bits(J, J_ref)
            for v in V[::7]:
                r_ref, j_ref = transcribed_residual_and_jacobian(scheme, n, p, v)
                assert_same_bits(system.residual(v), r_ref)
                assert_same_bits(system.jacobian(v), j_ref)
        # the inputs reach subnormal, overflowing and undefined values
        tiny = np.finfo(float).tiny
        assert ((np.abs(J) > 0) & (np.abs(J) < tiny)).any()
        assert np.isinf(R).any() and np.isnan(R).any()


class TestNewton:
    def test_converges_to_biinvariant(self):
        system = se.EinsteinSystem(1, 3)
        roots, _ = se.newton_solve(system, np.array([[1.1, 0.9, 0.4]]))
        npt.assert_allclose(roots[0], [1.0, 1.0, 3 / 8], atol=1e-9)

    def test_converges_to_second_family(self):
        system = se.EinsteinSystem(1, 3)
        roots, _ = se.newton_solve(system, np.array([[10.0, 10.0, 0.1]]))
        npt.assert_allclose(roots[0, :2], [11.0, 11.0], atol=1e-8)
        npt.assert_allclose(roots[0, 2], 63 / 968, atol=1e-10)

    def test_rejects_nonpositive_start(self):
        system = se.EinsteinSystem(1, 3)
        with pytest.raises(ValueError):
            se.newton_solve(system, np.array([[1.0, 0.0, 0.4]]))
        for bad in (np.nan, np.inf, -np.inf):
            for x0 in ([[bad, 1.0, 1.0]], [[bad, 1.0, 1.0], [1.1, 0.9, 0.4]]):
                with pytest.raises(ValueError, match="finite and strictly positive"):
                    se.newton_solve(system, np.array(x0))

    def test_failure_returns_none_or_root(self):
        # extremely unbalanced start: must either fail cleanly or truly converge
        system = se.EinsteinSystem(1, 4)
        roots, (outcome,) = se.newton_solve(system, np.array([[1e-2, 1e2, 1e-2]]))
        if outcome == "converged":
            assert np.abs(system.residual(roots[0])).max() < 1e-12
        else:
            assert np.isnan(roots[0]).all()


# (x1, x2, x4, lambda) with q x1 / 4 = p x2 / 4 = lambda exactly: the first
# two rows of the (5, 3) Jacobian are then parallel, an exactly singular matrix
SINGULAR_5_3 = np.array([1.5, 1.0, 0.5, 0.75])


def log_uniform_starts(system, count, seed):
    return 10.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, (count, system.size))


class TestBatchedNewton:
    @pytest.mark.parametrize("scheme,n,p", [(1, 4, None), (2, 5, 3), (2, 7, 1)])
    def test_residual_and_jacobian_broadcast(self, scheme, n, p, rng):
        system = se.EinsteinSystem(scheme, n, p)
        V = np.exp(rng.uniform(-1, 1, (7, system.size)))
        R, J = system.residual(V), system.jacobian(V)
        assert R.shape == (7, system.size) and J.shape == (7, system.size, system.size)
        for v, r, jac in zip(V, R, J):
            npt.assert_allclose(r, system.residual(v), rtol=1e-15, atol=1e-15)
            npt.assert_allclose(jac, system.jacobian(v), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("scheme,n,p", [(1, 3, None), (1, 4, None), (1, 6, None),
                                            (2, 4, 2), (2, 5, 3), (2, 6, 5)])
    def test_each_start_as_if_alone(self, scheme, n, p):
        system = se.EinsteinSystem(scheme, n, p)
        starts = log_uniform_starts(system, 200, seed=n)
        roots, outcomes = se.newton_solve(system, starts)
        assert roots.shape == starts.shape and outcomes.shape == (200,)
        assert set(outcomes) <= set(NEWTON_OUTCOMES)
        assert {"converged", "stalled_off_root"} <= set(outcomes)
        for start, root, outcome in zip(starts, roots, outcomes):
            alone_roots, (alone,) = se.newton_solve(system, start[None])
            assert outcome == alone
            assert root.tobytes() == alone_roots[0].tobytes()
            assert np.isnan(root).all() == (outcome != "converged")

    def test_singular_start_fails_only_itself(self):
        system = se.EinsteinSystem(2, 5, 3)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(system.jacobian(SINGULAR_5_3), -system.residual(SINGULAR_5_3))
        good = log_uniform_starts(system, 12, seed=3)
        roots, outcomes = se.newton_solve(system, good)
        assert "converged" in outcomes
        mixed_roots, mixed = se.newton_solve(system, np.insert(good, 5, SINGULAR_5_3, axis=0))
        assert mixed[5] == "singular_jacobian" and np.isnan(mixed_roots[5]).all()
        assert list(np.delete(mixed, 5)) == list(outcomes)
        assert np.delete(mixed_roots, 5, axis=0).tobytes() == roots.tobytes()
        alone_roots, alone = se.newton_solve(system, SINGULAR_5_3[None])
        assert list(alone) == ["singular_jacobian"] and np.isnan(alone_roots).all()

    def test_singular_member_bisects_the_batch(self, monkeypatch):
        # one singular member among 400 starts: the halves without it solve
        # batched, and every step, root and outcome is that of solving each
        # member on its own
        def per_member_steps(J, rhs):
            singular = np.zeros(len(rhs), dtype=bool)
            step = np.full_like(rhs, np.nan)
            for i in range(len(rhs)):
                try:
                    step[i] = np.linalg.solve(J[i], rhs[i])
                except np.linalg.LinAlgError:
                    singular[i] = True
            return step, singular

        system = se.EinsteinSystem(2, 5, 3)
        starts = np.insert(log_uniform_starts(system, 399, seed=4), 137, SINGULAR_5_3, axis=0)
        J, rhs = system.jacobian(starts), -system.residual(starts)
        solves = []
        original = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: solves.append(1) or original(*args))
        step, singular = solver._newton_steps(J, rhs)
        assert len(solves) <= 2 * math.ceil(math.log2(400)) + 1
        assert list(np.flatnonzero(singular)) == [137]
        loop_step, loop_singular = per_member_steps(J, rhs)
        assert step.tobytes() == loop_step.tobytes()
        assert singular.tobytes() == loop_singular.tobytes()
        monkeypatch.setattr(np.linalg, "solve", original)

        roots, outcomes = se.newton_solve(system, starts)
        monkeypatch.setattr(solver, "_newton_steps", per_member_steps)
        loop_roots, loop_outcomes = se.newton_solve(system, starts)
        assert outcomes[137] == "singular_jacobian"
        assert roots.tobytes() == loop_roots.tobytes()
        assert list(outcomes) == list(loop_outcomes)

    def test_rejects_bad_shapes(self):
        system = se.EinsteinSystem(1, 3)
        for bad in (np.ones(3), np.ones(4), np.ones((2, 4)), np.ones((2, 2, 3))):
            with pytest.raises(ValueError, match=r"\(B, k\)"):
                se.newton_solve(system, bad)
        with pytest.raises(ValueError):
            se.newton_solve(system, np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]]))

    def test_empty_batch(self):
        roots, outcomes = se.newton_solve(se.EinsteinSystem(1, 3), np.ones((0, 3)))
        assert roots.shape == (0, 3) and outcomes.shape == (0,)


def reference_newton(system, starts):
    """Batched Newton whose line search evaluates the halvings 2^0..2^-59 in
    four blocks of 15 and takes the first positive accepted one; the oracle
    for ``newton_solve``'s one-trial line search."""
    outcome_code = {name: code for code, name in enumerate(NEWTON_OUTCOMES)}
    halvings = 0.5 ** np.arange(60)
    v = np.array(starts, dtype=float)
    outcome = np.full(len(v), outcome_code["max_iter"])
    live = np.arange(len(v))
    with np.errstate(all="ignore"):
        r = system.residual(v)
        for _ in range(solver.MAX_ITER):
            rnorm = np.abs(r[live]).max(axis=1)
            done = rnorm < 1e-15
            outcome[live[done]] = outcome_code["stalled_off_root"]
            live, rnorm = live[~done], rnorm[~done]
            if live.size == 0:
                break
            step, singular = solver._newton_steps(system.jacobian(v[live]), -r[live])
            nonfinite = ~singular & ~np.isfinite(step).all(axis=1)
            outcome[live[singular]] = outcome_code["singular_jacobian"]
            outcome[live[nonfinite]] = outcome_code["nonfinite_step"]
            ok = ~(singular | nonfinite)
            live, rnorm, step = live[ok], rnorm[ok], step[ok]

            pick = np.full(live.size, -1)
            todo = np.arange(live.size)
            for block in np.split(np.arange(60), 4):
                t = halvings[block]
                trial = v[live[todo], None, :] + t[:, None] * step[todo, None, :]
                positive = (trial > 0).all(axis=2)
                norm = np.full(positive.shape, np.nan)
                norm[positive] = np.abs(system.residual(trial[positive])).max(axis=1)
                forced = (t <= 1e-8) & (rnorm[todo, None] < solver.NEWTON_TOL)
                accept = positive & ((norm <= rnorm[todo, None]) | forced)
                hit = accept.any(axis=1)
                pick[todo[hit]] = block[np.argmax(accept[hit], axis=1)]
                todo = todo[~hit]
                if todo.size == 0:
                    break
            found = pick >= 0
            outcome[live[~found]] = outcome_code["line_search_failed"]
            live = live[found]
            move = halvings[pick[found], None] * step[found]
            v[live] += move
            r[live] = system.residual(v[live])

            stall = np.abs(move).max(axis=1) < 1e-14 * np.fmax(1.0, np.abs(v[live]).max(axis=1))
            outcome[live[stall]] = outcome_code["stalled_off_root"]
            live = live[~stall]
        final = np.abs(r).max(axis=1) < solver.NEWTON_TOL
    stopped = np.isin(outcome, [outcome_code["stalled_off_root"], outcome_code["max_iter"]])
    outcome[stopped & final] = outcome_code["converged"]
    v[outcome != outcome_code["converged"]] = np.nan
    return v, np.array(NEWTON_OUTCOMES)[outcome]


def brute_force_pick(system, v, step, rnorm):
    """The first halving j in 0..59 whose iterate is positive and accepted, with
    its residual row; (-1, None) when there is none."""
    for j in range(60):
        t = 0.5**j
        trial = v + t * step
        if (trial > 0).all():
            res = system.residual(trial[None])[0]
            if np.abs(res).max() <= rnorm or (t <= 1e-8 and rnorm < solver.NEWTON_TOL):
                return j, res
    return -1, None


def line_search(system, v, step, rnorm):
    """``solver._line_search``, checked to return the max-norms of its accepted
    rows bit for bit; (pick, rows)."""
    pick, rows, norms = solver._line_search(system, v, step, rnorm)
    found = pick >= 0
    assert norms[found].tobytes() == np.abs(rows[found]).max(axis=1).tobytes()
    return pick, rows


def assert_picks_match(system, v, step, rnorm):
    with np.errstate(all="ignore"):
        pick, rows = line_search(system, v, step, rnorm)
        for i in range(len(v)):
            j, res = brute_force_pick(system, v[i], step[i], rnorm[i])
            assert pick[i] == j, (v[i], step[i], rnorm[i])
            if j >= 0:
                assert rows[i].tobytes() == res.tobytes()


LINE_SEARCH_SYSTEMS = [(1, 4, None), (2, 5, 2)]
# (scheme, n, p, seed); the last two are catalog-sweep's scheme-2 searches,
# whose seed is the catalog's seed 0 + p
BLOCKWISE_CASES = [(1, 4, None, 0), (1, 5, None, 0), (2, 4, 2, 0), (2, 5, 2, 0),
                   (2, 6, 3, 0), (2, 7, 1, 0), (2, 4, 2, 2), (2, 5, 2, 2)]


class TestLineSearch:
    @pytest.mark.parametrize("scheme,n,p,seed", BLOCKWISE_CASES,
                             ids=[f"{scheme}-{n}-{p}" + (f"-seed{seed}" if seed else "")
                                  for scheme, n, p, seed in BLOCKWISE_CASES])
    def test_matches_the_blockwise_scan_bit_for_bit(self, scheme, n, p, seed):
        system = se.EinsteinSystem(scheme, n, p)
        starts = log_uniform_starts(system, 400, seed=seed)
        roots, outcomes = se.newton_solve(system, starts)
        ref_roots, ref_outcomes = reference_newton(system, starts)
        assert list(outcomes) == list(ref_outcomes)
        assert roots.tobytes() == ref_roots.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), which=st.sampled_from(LINE_SEARCH_SYSTEMS))
    def test_pick_is_the_first_positive_accepted_halving(self, data, which):
        system = se.EinsteinSystem(*which)
        batch = data.draw(st.integers(1, 6))
        k = system.size
        exponent = st.floats(-3.0, 3.0)
        v = 10.0 ** np.array(data.draw(st.lists(exponent, min_size=batch * k,
                                                max_size=batch * k))).reshape(batch, k)
        # a step component is zero, or a signed power of ten from 1e-3 to 1e25
        mag = data.draw(st.lists(st.floats(-3.0, 25.0), min_size=batch * k, max_size=batch * k))
        sign = data.draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]),
                                  min_size=batch * k, max_size=batch * k))
        step = (np.array(sign) * 10.0 ** np.array(mag)).reshape(batch, k)
        with np.errstate(all="ignore"):
            rnorm = np.abs(system.residual(v)).max(axis=1)
        # scaled so that the first positive halving is sometimes rejected
        rnorm *= 10.0 ** np.array(data.draw(st.lists(st.floats(-6.0, 1.0),
                                                     min_size=batch, max_size=batch)))
        assert_picks_match(system, v, step, rnorm)

    @settings(max_examples=100, deadline=None)
    @given(which=st.sampled_from(LINE_SEARCH_SYSTEMS), e=st.integers(-4, 62),
           ulps=st.integers(-3, 3), x=st.floats(0.5, 2.0), reject=st.booleans())
    def test_bound_at_a_power_of_two(self, which, e, ulps, x, reject):
        # one component's bound is 2^-e, moved by a few ulps of the step
        system = se.EinsteinSystem(*which)
        v = np.full((1, system.size), x)
        step = np.full((1, system.size), 0.5)
        step[0, 0] = -x * 2.0**e
        step[0, 0] = step[0, 0] + ulps * np.spacing(step[0, 0])
        rnorm = np.array([0.0 if reject else np.inf])
        assert_picks_match(system, v, step, rnorm)

    @pytest.mark.parametrize("which", LINE_SEARCH_SYSTEMS)
    def test_adversarial_bounds(self, which):
        system = se.EinsteinSystem(*which)
        k = system.size
        ones = np.ones(k)
        cases = [  # (v[0], step[0], the bound or None)
            (1.0, -4.0, 0.25),             # bound exactly 2^-2: halving 2 lands on 0
            (1.0, -2.0**59, 2.0**-59),     # bound exactly 2^-59: no positive halving
            (1.0, -1e30, None),            # bound 1e-30, beyond 2^-59
            (1e-300, -1e300, 0.0),         # bound underflows to 0
            (1.0, -(2.0**59 - 2.0**7), None),  # bound just above 2^-59: halving 59 only
            (1.0, 3.0, np.inf),            # no negative component: the full step is positive
            (2.0**-1074, -3 * 2.0**-1074, None),  # 2^-2 step[0] rounds up to -v[0]: 3 is first
        ]
        v = np.tile(ones, (len(cases), 1))
        step = np.tile(0.5 * ones, (len(cases), 1))
        v[:, 0] = [c[0] for c in cases]
        step[:, 0] = [c[1] for c in cases]
        with np.errstate(all="ignore"):
            bound = np.where(step < 0, v / -step, np.inf).min(axis=1)
        for (_, _, expected), b in zip(cases, bound):
            if expected is not None:
                assert b == expected
        for rnorm in (np.zeros(len(cases)), np.full(len(cases), np.inf)):
            assert_picks_match(system, v, step, rnorm)
        with np.errstate(all="ignore"):
            pick, _ = line_search(system, v, step, np.full(len(cases), np.inf))
        assert list(pick[:6]) == [3, -1, -1, -1, 59, 0]  # the subnormal case: brute force above

    def test_one_residual_call_unless_a_start_is_rejected(self, monkeypatch):
        system = se.EinsteinSystem(1, 4)
        calls = []
        residual = system.residual
        monkeypatch.setattr(system, "residual", lambda v: calls.append(len(v)) or residual(v))
        v = np.ones((4, 3))
        step = np.full((4, 3), 0.5)
        step[:, 0] = [3.0, -4.0, -(2.0**59 - 2.0**7), -2.0**59]  # first positive halving 0, 3, 59, none
        with np.errstate(all="ignore"):
            pick, _ = line_search(system, v, step, np.full(4, np.inf))
            assert list(pick) == [0, 3, 59, -1] and calls == [3]
            calls.clear()
            # rnorm 0 rejects the first positive halving unless its step fraction is <= 1e-8
            pick, _ = line_search(system, v, step, np.zeros(4))
        assert list(pick) == [27, 27, 59, -1]
        assert calls == [3, 59 + 56]  # then halvings 1..59 and 4..59 of the rejected two

    def test_no_forced_step_off_the_root(self):
        # every trial near v = 1 has a residual far above 1e-6: off the root no
        # halving is accepted, while a start below NEWTON_TOL takes 2^-27 <= 1e-8
        system = se.EinsteinSystem(1, 4)
        tol = solver.NEWTON_TOL
        rnorm = np.array([1e-6, 2 * tol, tol, tol / 2, 0.0])
        v, step = np.ones((len(rnorm), 3)), np.full((len(rnorm), 3), 0.5)
        pick, _ = line_search(system, v, step, rnorm)
        assert list(pick) == [-1, -1, -1, 27, 27]

    def test_start_off_the_root_ends_instead_of_crawling(self, monkeypatch):
        # scheme 1 at n = 5: two seed-0 starts have no acceptable step off the
        # root; with forced steps they crawled through all 200 iterations
        system = se.EinsteinSystem(1, 5)
        calls = []
        jacobian = system.jacobian
        monkeypatch.setattr(system, "jacobian", lambda v: calls.append(len(v)) or jacobian(v))
        _, outcomes = se.newton_solve(system, log_uniform_starts(system, 400, seed=0))
        assert list(np.flatnonzero(outcomes == "line_search_failed")) == [196, 219]
        assert "max_iter" not in outcomes
        assert len(calls) <= 60

    def test_one_residual_call_per_accepting_iteration(self, monkeypatch):
        system = se.EinsteinSystem(1, 4)
        calls = {"residual": 0, "jacobian": 0}
        for name in calls:
            def counted(v, _method=getattr(system, name), _name=name):
                calls[_name] += 1
                return _method(v)
            monkeypatch.setattr(system, name, counted)
        # near the second family x1 = x3 = 7, lambda = 13/98 every full step is accepted
        roots, _ = se.newton_solve(system, np.array([[7.01, 6.99, 13 / 98]]))
        npt.assert_allclose(roots[0], [7.0, 7.0, 13 / 98], rtol=1e-12)
        assert calls["residual"] == 1 + calls["jacobian"]
        # across a multistart: the first positive halving, plus one call on rejection
        calls.update(residual=0, jacobian=0)
        se.newton_solve(system, log_uniform_starts(system, 400, seed=0))
        assert calls["residual"] <= 1 + 2 * calls["jacobian"]


def test_record_computes_ricci_once(monkeypatch):
    calls = []
    for name in ("_ricci_diagonal", "levi_civita", "riemann_norm_sq"):
        original = getattr(se.curvature, name)
        monkeypatch.setattr(se.curvature, name,
                            lambda *args, _name=name, _original=original:
                            calls.append(_name) or _original(*args))
    system = se.EinsteinSystem(1, 4)
    rec = system.record((7.0, 1.0, 7.0), 13 / 98)
    assert rec.valid and rec.I1 == pytest.approx(276 / 13, rel=1e-10)
    assert calls == ["_ricci_diagonal", "riemann_norm_sq"]  # never Gamma over all of f
    calls.clear()  # not Einstein: no |Riem|^2
    assert not system.record((1.0, 2.0, 1.0), 0.5).valid
    assert calls == ["_ricci_diagonal"]


class TestClosedFormScheme1:
    def test_n2_biinvariant_only(self):
        recs = se.closed_form_scheme1(2)
        assert len(recs) == 1
        assert recs[0].lam == pytest.approx(0.25, rel=1e-12)
        assert recs[0].I1 == pytest.approx(3.0, rel=1e-10)

    def test_n3_two_records(self):
        recs = se.closed_form_scheme1(3)
        assert len(recs) == 2
        second = recs[1]
        npt.assert_allclose(second.x, (11, 1, 11), atol=1e-12)
        assert second.lam == pytest.approx(63 / 968, rel=1e-10)
        assert second.I1 == pytest.approx(754 / 63, rel=1e-10)

    def test_n5_second_record(self):
        second = se.closed_form_scheme1(5)[1]
        assert second.x[0] == pytest.approx(17 / 3, rel=1e-14)
        assert second.lam == pytest.approx(465 / 2312, rel=1e-10)
        assert second.I1 == pytest.approx(5092 / 155, rel=1e-10)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_all_records_engine_verified(self, n):
        for rec in se.closed_form_scheme1(n):
            assert rec.valid
            assert rec.residual < 1e-8
            assert all(t > 0 for t in rec.x)


class TestClosedFormScheme2:
    def test_branch_roots_n5_p3(self):
        # (30 +- 12) / 36
        assert branch_x1(5, 3, +1) == pytest.approx(7 / 6, rel=1e-14)
        assert branch_x1(5, 3, -1) == pytest.approx(1 / 2, rel=1e-14)

    def test_branch_roots_n4_p2(self):
        # (16 +- 6) / 22: the + root coincides with the bi-invariant solution
        assert branch_x1(4, 2, +1) == pytest.approx(1.0, rel=1e-14)
        assert branch_x1(4, 2, -1) == pytest.approx(5 / 11, rel=1e-14)

    def test_branch_roots_positive(self):
        for n in range(2, 65):
            for p in range(1, n):
                for sign in (1, -1):
                    x1 = branch_x1(n, p, sign)
                    assert x1 > 0 and (n - p) / p * x1 > 0, (n, p, sign)

    def test_q1_reproduces_sol1(self):
        # q = 1: x1 = 1, x4 = 2/(p(p+1)), lambda = (p+1)/8, i.e. sol1 exactly
        p = 4
        recs = se.closed_form_scheme2(5, p)
        for rec in recs:
            assert rec.valid
            assert rec.x[0] == pytest.approx(1.0, abs=1e-12)
            assert rec.x[3] == pytest.approx(2 / (p * (p + 1)), rel=1e-12)
            assert rec.lam == pytest.approx((p + 1) / 8, rel=1e-10)
        assert len(dedup_records(recs)) == 1

    @pytest.mark.parametrize("n,p", [(n, p) for n in range(3, 9) for p in (1, n - 1)])
    def test_empty_block_constant_is_one(self, n, p):
        # the branches give x1 = 1/(n-1) at p = 1 and x2 = 1/(n-1) at p = n-1, a
        # constant that multiplies nothing; the records report it as 1
        empty = 0 if p == 1 else 1
        for rec in se.closed_form_scheme2(n, p):
            assert rec.x[empty] == 1.0, rec
        assert len(solve_configuration(2, n, p, n_starts=0).records) == 1

    @pytest.mark.parametrize("p", [17, 19])
    def test_every_closed_form_valid_at_n40(self, p):
        # an absolute residual rejected these exact - branches, at 1.04e-8 and 1.50e-8
        records = se.closed_form_scheme2(40, p)
        assert all(rec.valid for rec in records), [rec.notes for rec in records]

    @pytest.mark.parametrize("p", [19, 24, 31])
    def test_closed_forms_at_n48_have_a_scale_free_residual(self, p):
        # the balance constant grows with n, and the relative residual does not
        for rec in se.closed_form_scheme2(48, p):
            assert rec.valid and rec.residual <= 1e-12, (rec.provenance, rec.residual)

    def test_sol1_values(self):
        rec = se.closed_form_scheme2(5, 3)[0]
        npt.assert_allclose(rec.x, (1, 1, 1, 2 / 30), atol=1e-14)
        assert rec.lam == pytest.approx(5 / 8, rel=1e-12)
        assert rec.I1 == pytest.approx(24.0, rel=1e-10)

    @pytest.mark.parametrize("n,p", [(5, 3), (5, 2), (6, 4), (7, 3), (7, 4), (8, 3)])
    def test_branches_engine_verified(self, n, p):
        recs = se.closed_form_scheme2(n, p)
        assert len(recs) == 3
        for rec in recs:
            assert rec.valid, rec.notes
            assert rec.residual < 1e-8

    def test_branch_x4_lambda_solve_the_system(self):
        for (n, p, sign) in [(5, 3, +1), (5, 3, -1), (7, 4, +1), (7, 4, -1)]:
            x1 = branch_x1(n, p, sign)
            x2 = (n - p) / p * x1
            x4, lam = branch_x4_lambda(n, p, x1)
            npt.assert_allclose(se.scheme2_system(n, p, x1, x2, 1.0, x4, lam),
                                0.0, atol=1e-12)

    def test_printed_x4_lambda_fail_the_system(self):
        # the transcribed branch expressions do not satisfy the system's own
        # fourth equation; records must carry the audit note
        n, p = 5, 3
        for sign in (+1, -1):
            x1 = branch_x1(n, p, sign)
            x2 = (n - p) / p * x1
            x4, lam = printed_branch_x4_lambda(n, p, x1)
            res = se.scheme2_system(n, p, x1, x2, 1.0, x4, lam)
            assert np.abs(res).max() > 1e-2
        recs = se.closed_form_scheme2(n, p)
        for rec in recs[1:]:
            assert rec.notes is not None and "transcribed" in rec.notes

    def test_p_symmetry_of_invariants(self):
        # (p, q) and (q, p) describe the same geometries: same lambda and I1
        a = se.closed_form_scheme2(7, 3)
        b = se.closed_form_scheme2(7, 4)
        for ra, rb in zip(a, b):
            assert ra.lam == pytest.approx(rb.lam, rel=1e-10)
            assert ra.I1 == pytest.approx(rb.I1, rel=1e-8)


# catalog-sweep's four searches at 400 starts: (scheme, n, p, seed), the
# residual and jacobian calls, the Newton outcomes other than 0,
# boundary_discarded and duplicates
CATALOG_SWEEP_WORK = [
    ((1, 4, None, 0), 77, 56,
     {"converged": 156, "stalled_off_root": 243, "line_search_failed": 1}, 45, 111),
    ((2, 4, 2, 2), 401, 200,
     {"converged": 174, "stalled_off_root": 191, "max_iter": 35}, 52, 122),
    ((1, 5, None, 0), 88, 54,
     {"converged": 159, "stalled_off_root": 239, "line_search_failed": 2}, 41, 118),
    ((2, 5, 2, 2), 221, 200,
     {"converged": 167, "stalled_off_root": 187, "max_iter": 46}, 26, 141),
]


class TestMultistart:
    def test_scheme1_n3_exactly_two(self):
        ms = se.multistart_search(se.EinsteinSystem(1, 3), n_starts=200, seed=11)
        assert len(ms.records) == 2
        assert ms.records[0].I1 == pytest.approx(8.0, rel=1e-8)
        assert ms.records[1].I1 == pytest.approx(754 / 63, rel=1e-8)

    def test_scheme2_n5_p3_exactly_three(self):
        ms = se.multistart_search(se.EinsteinSystem(2, 5, 3), n_starts=400, seed=7)
        assert len(ms.records) == 3

    def test_scheme2_q1_exactly_one(self):
        ms = se.multistart_search(se.EinsteinSystem(2, 5, 4), n_starts=400, seed=7)
        assert len(ms.records) == 1
        assert ms.records[0].I1 == pytest.approx(24.0, rel=1e-8)

    def test_determinism(self):
        a = se.multistart_search(se.EinsteinSystem(2, 5, 3), n_starts=120, seed=3)
        b = se.multistart_search(se.EinsteinSystem(2, 5, 3), n_starts=120, seed=3)
        assert [r.x for r in a.records] == [r.x for r in b.records]
        assert [r.I1 for r in a.records] == [r.I1 for r in b.records]
        assert a.diagnostics == b.diagnostics

    def test_batch_draw_equals_per_start_draws(self):
        rng = np.random.default_rng(17)
        one_by_one = np.array([rng.uniform(-2.0, 2.0, 4) for _ in range(50)])
        npt.assert_array_equal(np.random.default_rng(17).uniform(-2.0, 2.0, (50, 4)), one_by_one)

    def test_newton_outcomes_sum_to_starts(self):
        a = se.multistart_search(se.EinsteinSystem(1, 4), n_starts=150, seed=4)
        b = se.multistart_search(se.EinsteinSystem(1, 4), n_starts=150, seed=4)
        counts = a.diagnostics["newton_outcomes"]
        assert set(counts) == set(NEWTON_OUTCOMES)
        assert sum(counts.values()) == a.diagnostics["starts"] == 150
        assert counts["converged"] == a.diagnostics["converged"]
        assert a.diagnostics["failed"] == 150 - counts["converged"]
        assert counts == b.diagnostics["newton_outcomes"]

    @pytest.mark.parametrize("config,residuals,jacobians,outcomes,boundary,duplicates",
                             CATALOG_SWEEP_WORK,
                             ids=[f"{scheme}-{n}-{p}-seed{seed}"
                                  for (scheme, n, p, seed), *_ in CATALOG_SWEEP_WORK])
    def test_catalog_sweep_newton_work(self, config, residuals, jacobians, outcomes,
                                       boundary, duplicates, monkeypatch):
        # one jacobian call per iteration: an iteration with no live start would add one
        calls = {"residual": 0, "jacobian": 0}
        for name in calls:
            def counted(system, v, _method=getattr(se.EinsteinSystem, name), _name=name):
                calls[_name] += 1
                return _method(system, v)
            monkeypatch.setattr(se.EinsteinSystem, name, counted)
        scheme, n, p, seed = config
        diag = solve_configuration(scheme, n, p, n_starts=400, seed=seed).diagnostics
        assert calls == {"residual": residuals, "jacobian": jacobians}
        assert diag["newton_outcomes"] == {name: outcomes.get(name, 0) for name in NEWTON_OUTCOMES}
        assert (diag["boundary_discarded"], diag["duplicates"]) == (boundary, duplicates)
        assert diag["search_missed"] == []

    def test_zero_and_negative_starts(self):
        ms = se.multistart_search(se.EinsteinSystem(1, 3), n_starts=0)
        assert ms.records == [] and sum(ms.diagnostics["newton_outcomes"].values()) == 0
        with pytest.raises(ValueError):
            se.multistart_search(se.EinsteinSystem(1, 3), n_starts=-1)

    def test_records_sorted_and_valid(self):
        ms = se.multistart_search(se.EinsteinSystem(1, 4), n_starts=200, seed=5)
        i1s = [r.I1 for r in ms.records]
        assert i1s == sorted(i1s)
        assert all(r.valid and r.residual < 1e-8 for r in ms.records)

    def test_engine_rejected_root_is_kept_for_matching(self):
        # every root fails a tolerance below its residual: each metric is
        # validated once, and its copies are counted as duplicates
        a = se.multistart_search(se.EinsteinSystem(1, 3), n_starts=200, seed=11)
        b = se.multistart_search(se.EinsteinSystem(1, 3), n_starts=200, seed=11,
                                 engine_tol=1e-300)
        assert b.records == [] and b.diagnostics["engine_rejected"] == len(a.records) == 2
        assert b.diagnostics["duplicates"] == a.diagnostics["duplicates"]

    def test_boundary_roots_counted_not_returned(self):
        ms = se.multistart_search(se.EinsteinSystem(1, 5), n_starts=300, seed=2)
        assert ms.diagnostics["boundary_discarded"] > 0
        assert all(min(r.x) > 1e-4 for r in ms.records)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_roots_lie_well_inside_dedup_rtol_of_a_closed_form(self, n, monkeypatch):
        # the same-root rule has a margin: every converged non-boundary root of
        # a catalog configuration is within DEDUP_RTOL / 10 of a closed form
        searched = []
        newton = solver.newton_solve

        def capture(system, starts):
            roots, outcomes = newton(system, starts)
            searched.append((system, roots[outcomes == "converged"]))
            return roots, outcomes

        monkeypatch.setattr(solver, "newton_solve", capture)
        se.enumerate_metrics(n)
        assert len(searched) == 1 + (n // 2 - 1)
        for system, roots in searched:
            closed = (se.closed_form_scheme1(n) if system.scheme == 1
                      else se.closed_form_scheme2(n, system.p))
            for v in roots[roots.min(axis=1) >= solver.BOUNDARY_FLOOR]:
                x = system.full_x(v)
                assert any(max(abs(s - t) for s, t in zip(x, c.x))
                           <= solver.DEDUP_RTOL / 10 * max(1.0, *c.x)
                           for c in closed if c.valid), (system.scheme, n, system.p, x)


SEARCH_DIAGNOSTICS = {"starts", "converged", "failed", "boundary_discarded", "engine_rejected",
                      "duplicates", "newton_outcomes", "search_missed", "invalid_closed_forms"}
CONFIGURATIONS = [(1, n, None) for n in range(3, 7)] + [
    (2, n, p) for n in range(2, 7) for p in range(1, n)]


class TestOneSearch:
    @pytest.mark.parametrize("scheme,n,p", CONFIGURATIONS)
    def test_solve_configuration_is_the_search_with_the_closed_forms(self, scheme, n, p):
        closed = se.closed_form_scheme1(n) if scheme == 1 else se.closed_form_scheme2(n, p)
        system = se.EinsteinSystem(scheme, n, p)
        direct = se.multistart_search(system, 60, n, closed=closed)
        solved = solve_configuration(scheme, n, p, n_starts=60, seed=n)
        assert [r.as_dict() for r in direct.records] == [r.as_dict() for r in solved.records]
        assert direct.diagnostics == solved.diagnostics
        assert set(solved.diagnostics) == SEARCH_DIAGNOSTICS

    def test_search_without_closed_forms_has_the_same_keys(self):
        ms = se.multistart_search(se.EinsteinSystem(2, 5, 3), n_starts=60, seed=5)
        assert set(ms.diagnostics) == SEARCH_DIAGNOSTICS
        assert ms.diagnostics["search_missed"] == ms.diagnostics["invalid_closed_forms"] == []

    def test_solve_and_catalog_reach_the_module_search(self, monkeypatch, capsys):
        # a wrapper on the module attribute sees every configuration
        searched = []
        search = solver.multistart_search

        def counted(system, *args, **kwargs):
            searched.append((system.scheme, system.n, system.p))
            return search(system, *args, **kwargs)

        monkeypatch.setattr(solver, "multistart_search", counted)
        se.enumerate_metrics(5, n_starts=10)
        assert searched == [(1, 5, None), (2, 5, 2)]
        searched.clear()
        assert cli.main(["solve", "--scheme", "2", "--n", "5", "--p", "3", "--starts", "10"]) == 0
        capsys.readouterr()
        assert searched == [(2, 5, 3)]


class TestSolveConfiguration:
    def test_merges_closed_forms_and_search(self):
        result = solve_configuration(2, 5, 3, n_starts=400, seed=7)
        assert len(result.records) == 3
        assert result.diagnostics["search_missed"] == []

    def test_scheme1_counts(self):
        result = solve_configuration(1, 3, n_starts=200, seed=1)
        assert len(result.records) == 2
        assert result.diagnostics["search_missed"] == []

    def test_record_serialization_roundtrip_fields(self):
        rec = solve_configuration(1, 3, n_starts=50, seed=1).records[0]
        d = rec.as_dict()
        assert d["scheme"] == 1 and d["n"] == 3
        assert isinstance(d["x"], list) and len(d["x"]) == 3
        assert d["lambda"] == rec.lam

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_equal_split_lists_each_metric_once(self, n):
        # Newton stalls within ~5e-6 of the double root x1 = 1; they are copies
        result = solve_configuration(2, n, n // 2)
        assert sorted(r.provenance for r in result.records) == [
            "closed_form_1", "closed_form_2_minus"]
        assert result.diagnostics["search_missed"] == []

    def test_record_runs_once_per_closed_form_and_numeric_record(self, monkeypatch):
        provenances = []
        record = solver.EinsteinSystem.record

        def counted(self, *args, **kwargs):
            rec = record(self, *args, **kwargs)
            provenances.append(rec.provenance)
            return rec

        monkeypatch.setattr(solver.EinsteinSystem, "record", counted)
        result = solve_configuration(2, 5, 3, seed=7)
        numeric = [r for r in result.records if r.provenance == "numeric"]
        assert len(provenances) == len(se.closed_form_scheme2(5, 3)) + len(numeric)
        assert provenances.count("numeric") == len(numeric)
