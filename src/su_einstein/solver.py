"""Einstein systems for the two metric ansatz families and their solutions.

The Einstein condition for a class-diagonal metric reduces to one algebraic
equation per generator class (with the per-class Ricci eigenvalue on the left
and lambda * x_c on the right).  This module carries those reduced systems,
the closed-form solution families, a damped Newton iteration and a seeded
multistart search with deduplication.  Every solution that leaves this module
has been cross-checked against the curvature engine, not just the reduced
system.

Normalization gauges: x2 = 1 for the three-class family, x3 = 1 for the
four-class family.  Einstein metrics come in scale families and the invariant
I1 is scale-free, so records are stored in these gauges.  A record is built
from the full gauge-fixed x and lambda (``EinsteinSystem.record``), as the
closed forms give them; ``EinsteinSystem.full_x`` expands the reduced
unknowns of Newton roots to that x.

For the four-class family the closed-form x4 and lambda of the non-trivial
branches are derived from the system itself (equations 1 and 4 give
lambda = (p + q x1^2) / (8 x1) and x4 = 16 lambda / (p q n^2)); the
transcribed closed-form expressions for x4 and lambda floating around in the
literature do not satisfy the system's own fourth equation, so each record
carries an audit note comparing both (see ``printed_branch_x4_lambda``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import curvature, liealg
from .curvature import DEFAULT_EINSTEIN_TOL

BOUNDARY_FLOOR = 1e-4   # converged components below this are degenerate limits
NEWTON_TOL = 1e-12      # a Newton root's residual max-norm is below this
MAX_ITER = 200          # Newton steps per start at most
DEDUP_RTOL = 1e-4      # two roots of a configuration are one metric iff their x agree within this


@dataclass(frozen=True)
class EinsteinRecord:
    """One solved Einstein metric in the normalization gauge.

    ``provenance`` names where x comes from: ``closed_form_1`` (the
    bi-invariant family), ``closed_form_2`` (the three-class second family),
    ``closed_form_2_plus`` and ``closed_form_2_minus`` (the + and - roots of
    the four-class branches) or ``numeric`` (a multistart root).
    """

    scheme: int
    n: int
    p: int | None
    x: tuple[float, ...]
    lam: float
    I1: float | None
    provenance: str
    residual: float
    valid: bool = True
    notes: str | None = None
    eq_class: int | None = None

    def as_dict(self) -> dict:
        """The fields by name, with ``lam`` as "lambda" and x as a list."""
        out = {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
               for f in fields(self)}
        out["x"] = list(self.x)
        return out


def scheme1_system(n: int, x1: float, x2: float, x3: float, lam: float) -> np.ndarray:
    """Residuals (LHS_i - lambda * x_i) of the three-class Einstein system at
    any x; ``EinsteinSystem.residual`` evaluates it at x2 = 1."""
    e1 = (n / 4
          - (n - 2) / 8 * x2 / x1
          + 0.25 * x1 * x1 / (x2 * x3)
          - 0.25 * x3 / x2
          - 0.25 * x2 / x3) - lam * x1
    e2 = ((n + 6) / 16
          + (n - 2) / 16 * x2 * x2 / (x1 * x1)
          + 0.25 * x2 * x2 / (x1 * x3)
          - 0.25 * x3 / x1
          - 0.25 * x1 / x3) - lam * x2
    e3 = n / 8 * (2 - x2 / x1 - x1 / x2 + x3 * x3 / (x1 * x2)) - lam * x3
    return np.array([e1, e2, e3])


def scheme2_system(n: int, p: int, x1: float, x2: float, x3: float, x4: float,
                   lam: float) -> np.ndarray:
    """Residuals of the four-class Einstein system for SU(p) x SU(q) in SU(n).

    Rejects p in {0, n}: those splits are the three-class family in disguise
    (and the equations divide by p and q).  At any x;
    ``EinsteinSystem.residual`` evaluates it at x3 = 1.
    """
    if p <= 0 or p >= n:
        raise ValueError(f"need 1 <= p <= n-1 (got p={p}, n={n}); use the scheme-1 system instead")
    q = n - p
    e1 = p / 8 + q / 8 * x1 * x1 / (x3 * x3) - lam * x1
    e2 = q / 8 + p / 8 * x2 * x2 / (x3 * x3) - lam * x2
    e3 = ((p + q) / 4
          - (p - 1) * (p + 1) / (8 * p) * x1 / x3
          - (q - 1) * (q + 1) / (8 * q) * x2 / x3
          - (p + q) ** 2 / 16 * x4 / x3) - lam * x3
    e4 = p * q * (p + q) ** 2 / 16 * x4 * x4 / (x3 * x3) - lam * x4
    return np.array([e1, e2, e3, e4])


class EinsteinSystem:
    """The reduced Einstein system in its normalization gauge.

    The equations are those of the nonempty classes (``liealg.class_sizes``),
    and the unknowns are the constants of the nonempty classes other than the
    gauge class, then lambda.  For the four-class family, a block with p or q
    equal to 1 has no generators of its own, so its constant multiplies
    nothing and is neither an unknown nor an equation.  Raises ValueError on
    a bad configuration (``liealg.class_sizes``) and, the one solving rule,
    on a four-class split whose balance class is empty (p = 0 or p = n).  The
    system owns its configuration's f (``structure_constants``).
    """

    def __init__(self, scheme: int, n: int, p: int | None = None):
        sizes = liealg.class_sizes(scheme, n, p)
        if scheme == 2 and not sizes[3]:
            raise ValueError(f"the four-class system needs 1 <= p <= n-1, got p={p}, n={n}; "
                             "p = 0 or p = n is the scheme-1 configuration")
        self.scheme = scheme
        self.n = n
        self.p = p
        gauge = 1 if scheme == 1 else 2  # x2 = 1, or x3 = 1
        self._num_classes = len(sizes)
        self._rows = [c for c, size in enumerate(sizes) if size]
        self._free = [c for c in self._rows if c != gauge]
        self.unknowns = tuple(f"x{c + 1}" for c in self._free) + ("lambda",)
        # the hand-typed scheme-2 Jacobian has a column per non-gauge class, then
        # lambda; with every class nonempty, every row and column is kept and
        # residual and jacobian skip the gathers
        keep = [c - (c > gauge) for c in self._free] + [len(sizes) - 1]
        self._block = None if len(self._rows) == len(sizes) else np.ix_(self._rows, keep)

    @property
    def size(self) -> int:
        return len(self.unknowns)

    @cached_property
    def structure_constants(self) -> liealg.StructureConstants:
        """``liealg.formed_structure_constants(scheme, n, p)``, the entries of f
        that a verdict reads, built on first use."""
        return liealg.formed_structure_constants(self.scheme, self.n, self.p)

    def full_x(self, v: np.ndarray) -> np.ndarray:
        """The full gauge-fixed x of unknowns of shape (k,) or (B, k), as an
        array of shape (classes,) or (B, classes); the gauge entry and the
        constants of empty classes are 1."""
        return np.stack(np.broadcast_arrays(*self._columns(v)[0]), axis=-1)

    def _columns(self, v: np.ndarray):
        """The full gauge-fixed x and lambda for unknowns of shape (k,) or (B, k).

        Each entry is a scalar or a length-B column; gauge entries and
        constants of empty classes are the constant 1.
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1:] != (self.size,) or v.ndim > 2:
            raise ValueError(f"expected (k,) or (B, k) unknowns {self.unknowns}, got {v.shape}")
        columns = np.ascontiguousarray(v.T)
        x = [1.0] * self._num_classes
        for c, column in zip(self._free, columns):
            x[c] = column
        return x, columns[-1]

    def residual(self, v: np.ndarray) -> np.ndarray:
        """Residuals at unknowns of shape (k,) or (B, k); same shape out.

        The gauge constant (x2 in the three-class family, x3 in the
        four-class one) is read as exactly 1: every product or quotient with
        it is dropped or folded into its scalar coefficient, and every other
        operation runs in the order of ``scheme1_system`` and
        ``scheme2_system``, so the rows are theirs at the gauge value 1.0,
        bit for bit.  Those transcriptions for general x are what this is
        tested against.
        """
        x, lam = self._columns(v)
        n = self.n
        if self.scheme == 1:
            x1, _, x3 = x
            e1 = (n / 4
                  - (n - 2) / 8 / x1
                  + 0.25 * x1 * x1 / x3
                  - 0.25 * x3
                  - 0.25 / x3) - lam * x1
            e2 = ((n + 6) / 16
                  + (n - 2) / 16 / (x1 * x1)
                  + 0.25 / (x1 * x3)
                  - 0.25 * x3 / x1
                  - 0.25 * x1 / x3) - lam
            e3 = n / 8 * (2 - 1.0 / x1 - x1 + x3 * x3 / x1) - lam * x3
            return np.array([e1, e2, e3]).T
        p = self.p
        q = n - p
        x1, x2, _, x4 = x
        e1 = p / 8 + q / 8 * x1 * x1 - lam * x1
        e2 = q / 8 + p / 8 * x2 * x2 - lam * x2
        e3 = ((p + q) / 4
              - (p - 1) * (p + 1) / (8 * p) * x1
              - (q - 1) * (q + 1) / (8 * q) * x2
              - (p + q) ** 2 / 16 * x4) - lam
        e4 = p * q * (p + q) ** 2 / 16 * x4 * x4 - lam * x4
        full = np.array([e1, e2, e3, e4])
        return (full if self._block is None else full[self._rows]).T

    def jacobian(self, v: np.ndarray) -> np.ndarray:
        """Analytic Jacobian of ``residual``: (k, k) for v of shape (k,), (B, k, k) for (B, k).

        Like ``residual``, it reads the gauge constant as exactly 1 and keeps
        the order of every other operation; each power of x is formed once.
        So every entry has the bits of the hand-typed Jacobian of
        ``scheme1_system`` and ``scheme2_system`` for general x at the gauge
        value 1.0, which the tests keep as its oracle.
        """
        x, lam = self._columns(v)
        if self.scheme == 1:
            n = self.n
            x1, _, x3 = x
            x1_2, x3_2 = x1**2, x3**2
            J = np.empty(np.shape(lam) + (3, 3))
            J[..., 0, 0] = (n - 2) / 8 / x1_2 + 0.5 * x1 / x3 - lam
            J[..., 0, 1] = -0.25 * x1_2 / x3_2 - 0.25 + 0.25 / x3_2
            J[..., 0, 2] = -x1
            J[..., 1, 0] = (-(n - 2) / 8 / x1**3 - 0.25 / (x1_2 * x3)
                            + 0.25 * x3 / x1_2 - 0.25 / x3)
            J[..., 1, 1] = -0.25 / (x1 * x3_2) - 0.25 / x1 + 0.25 * x1 / x3_2
            J[..., 1, 2] = -1.0
            J[..., 2, 0] = n / 8 * (1.0 / x1_2 - 1.0 - x3_2 / x1_2)
            J[..., 2, 1] = n / 8 * 2 * x3 / x1 - lam
            J[..., 2, 2] = -x3
            return J
        n, p = self.n, self.p
        q = n - p
        x1, x2, _, x4 = x
        J = np.zeros(np.shape(lam) + (4, 4))
        J[..., 0, 0] = q / 4 * x1 - lam
        J[..., 0, 3] = -x1
        J[..., 1, 1] = p / 4 * x2 - lam
        J[..., 1, 3] = -x2
        J[..., 2, :] = (-(p - 1) * (p + 1) / (8 * p), -(q - 1) * (q + 1) / (8 * q),
                        -n**2 / 16, -1.0)
        J[..., 3, 2] = p * q * n**2 / 8 * x4 - lam
        J[..., 3, 3] = -x4
        return J if self._block is None else J[(Ellipsis, *self._block)]

    def record(self, x, lam: float, provenance: str = "numeric",
               engine_tol: float = DEFAULT_EINSTEIN_TOL) -> EinsteinRecord:
        """Cross-validate a root, the full gauge-fixed x and lambda, against the
        curvature engine on the system's own f and build a record.

        The constant of an empty class multiplies nothing; the record reports
        it as 1.
        """
        x = tuple(float(t) if c in self._rows else 1.0 for c, t in enumerate(x))
        sc = self.structure_constants
        residual, lam_best, I1 = curvature.einstein_verdict(sc, x, tol=engine_tol)
        valid = I1 is not None
        notes = None if valid else f"engine residual {residual:.3e} exceeds {engine_tol:.1e}"
        return EinsteinRecord(
            scheme=self.scheme,
            n=self.n,
            p=self.p,
            x=x,
            lam=lam_best if valid else float(lam),
            I1=I1,
            provenance=provenance,
            residual=residual,
            valid=valid,
            notes=notes,
        )


NEWTON_OUTCOMES = (
    "converged",           # the final residual is below NEWTON_TOL
    "singular_jacobian",   # the Newton step has no solution
    "nonfinite_step",      # the Newton step has a nan or inf component
    "line_search_failed",  # no halving gave a positive iterate whose residual did not grow
    "stalled_off_root",    # the step stalled, but the residual is not below NEWTON_TOL
    "max_iter",            # MAX_ITER steps taken, and the residual is not below NEWTON_TOL
)
_OUTCOME = {name: code for code, name in enumerate(NEWTON_OUTCOMES)}

# Line-search step fractions 1, 1/2, ..., 2^-59 (exact powers of two).
_HALVINGS = 0.5 ** np.arange(60)
_HALVING_INDEX = np.arange(60)
_SMALL_HALVING = int(np.argmax(_HALVINGS <= 1e-8))  # 27: from here on 2^-j <= 1e-8


def newton_solve(system: EinsteinSystem, starts) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on the reduced system, staying positive.

    Each step is the first halving 2^-j (j < 60) whose iterate keeps all
    components positive and whose residual norm does not grow
    (``_line_search``).  Only a start whose residual is already below
    NEWTON_TOL may take a step fraction of at most 1e-8 that grows it; a
    start off the root with no acceptable halving ends ``line_search_failed``.
    The accepted trial's residual and its max-norm are kept for the next
    iteration.  Iterates past the NEWTON_TOL threshold until the step stalls,
    which sharpens roots where two solution branches collide (there the
    Jacobian is singular and plain Newton converges only linearly).

    ``starts`` of shape (B, k) are iterated together, for at most MAX_ITER
    steps: returns ``(roots, outcomes)``, the (B, k) roots (nan rows where a
    start did not converge) and each start's entry of NEWTON_OUTCOMES.  Every
    start takes the steps it would take alone, and a singular Jacobian fails
    only its own start.  The live starts are kept compact, as (k, m) iterates
    and residuals with the unknowns along axis 0, so that every reduction
    over the unknowns runs along the starts; a start that finishes is written
    to the result once, the live arrays shrink only in an iteration where
    some start finishes, and the loop ends as soon as no start is live.
    """
    v = np.array(starts, dtype=float)
    if v.ndim != 2 or v.shape[1] != system.size:
        raise ValueError(f"expected (B, k) starts with k = {system.size} unknowns "
                         f"{system.unknowns}, got {v.shape}")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError("starting point must be finite and strictly positive")
    outcome = np.full(len(v), _OUTCOME["max_iter"])
    roots = np.full_like(v, np.nan)
    live, x = np.arange(len(v)), v.T.copy()  # the live starts and their (k, m) iterates

    def settle(stop):
        # the live starts in `stop` stop stepping: converged where the residual is below NEWTON_TOL
        root = stop & (rnorm < NEWTON_TOL)
        roots[live[root]] = x[:, root].T
        outcome[live[root]] = _OUTCOME["converged"]

    with np.errstate(all="ignore"):
        r = system.residual(x.T).T
        rnorm = np.abs(r).max(axis=0)
        for _ in range(MAX_ITER):
            done = rnorm < 1e-15  # below NEWTON_TOL: these starts have converged
            if done.any():
                settle(done)
                keep = ~done
                live, x, r, rnorm = live[keep], x[:, keep], r[:, keep], rnorm[keep]
            if live.size == 0:
                break
            step, singular = _newton_steps(system.jacobian(x.T), -r.T)
            step = np.ascontiguousarray(step.T)
            if not np.isfinite(step).all():
                keep = np.isfinite(step).all(axis=0)  # a singular start's step is nan
                bad = ~keep
                outcome[live[bad]] = np.where(singular[bad], _OUTCOME["singular_jacobian"],
                                              _OUTCOME["nonfinite_step"])
                live, x, rnorm, step = live[keep], x[:, keep], rnorm[keep], step[:, keep]
                if live.size == 0:
                    break

            pick, r, rnorm = _line_search(system, x.T, step.T, rnorm)
            r = r.T  # the accepted trial is x + move below, bit for bit
            if pick.min() < 0:
                found = pick >= 0
                outcome[live[~found]] = _OUTCOME["line_search_failed"]
                live, x, step, pick = live[found], x[:, found], step[:, found], pick[found]
                r, rnorm = r[:, found], rnorm[found]
                if live.size == 0:
                    break
            move = _HALVINGS[pick] * step
            x += move

            # the iterates are positive: max(1, max |x_i|) is x.max(initial=1)
            stall = np.abs(move).max(axis=0) < 1e-14 * x.max(axis=0, initial=1.0)
            if stall.any():
                outcome[live[stall]] = _OUTCOME["stalled_off_root"]
                settle(stall)
                keep = ~stall
                live, x, r, rnorm = live[keep], x[:, keep], r[:, keep], rnorm[keep]
        settle(np.ones(live.size, dtype=bool))  # the rest took MAX_ITER steps
    return roots, np.array(NEWTON_OUTCOMES)[outcome]


def _line_search(system: EinsteinSystem, v: np.ndarray, step: np.ndarray,
                 rnorm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first halving j of each start whose iterate v + 2^-j step is positive
    and accepted; (j or -1 where none is, residual rows at the accepted
    iterates, their max-norms).  Rows and norms of a start with j = -1 are
    undefined.

    ``v`` and ``step`` are (B, k).  A trial is accepted when its iterate is
    positive and its residual max-norm is at most ``rnorm``, or its step
    fraction is at most 1e-8 and ``rnorm`` is below NEWTON_TOL: a start off
    the root never takes a step that grows its residual.  With
    rate = max(-step_i / v_i), the reciprocal of the largest positive step
    fraction, and f the exponent with 2^(f-1) <= max(rate, 1/2) < 2^f, the
    first positive halving is f or a later one:

    - a quotient of floats that rounds to at least 2^(f-1) is at least
      2^(f-1), so every halving j < f is at least the largest positive step
      fraction, and its iterate is not positive;
    - 2^-j step_i is exact unless it underflows, and the rounding of
      v_i + 2^-j step_i keeps the sign of the exact sum, which falls as the
      step fraction grows; so halving f is positive unless a product
      underflows, and positivity holds from one halving on.

    The residual is evaluated at halving f of every start; when every
    start's iterate there is positive and accepted, that is the answer.
    Otherwise the starts it does not accept try every later halving.  Each
    round evaluates every trial it builds and applies the one rule above
    (``accepted``), which rejects an iterate that is not positive, whose
    residual may be inf or nan.  Internally the unknowns run along axis 0, so
    that reductions over them run along the starts.  ``newton_solve`` passes
    transposed views of its (k, m) arrays, which are therefore not copied,
    and the residual rows come back as a transposed view of a (k, m) array.
    """
    v, step = v.T, step.T
    # f is the exponent of min(step_i / v_i, -1/2) = -max(rate, 1/2), and 0 where that is -inf
    f = np.frexp((step / v).min(axis=0, initial=-0.5))[1]
    j = np.minimum(f, 59)  # where f >= 60, halving 59 < f is not positive

    # halving f of every start, in one residual call
    trial = v + _HALVINGS[j] * step
    res = system.residual(trial.T)
    norms = np.abs(res).max(axis=1)
    if trial.min() > 0 and (norms <= rnorm).all():
        return j, res, norms
    rows = res.T  # the residual's own (k, m) array also takes the later halvings' rows
    forced = rnorm < NEWTON_TOL  # may take a step fraction <= 1e-8 that grows the residual

    def accepted(trial, norm, start, j):
        return (trial > 0).all(axis=0) & ((norm <= rnorm[start])
                                          | ((j >= _SMALL_HALVING) & forced[start]))

    pick = np.where(accepted(trial, norms, slice(None), j), j, -1)

    # every later halving of the rest, in (start, j) order
    todo = np.flatnonzero(pick < 0)
    start, j = np.nonzero(_HALVING_INDEX > j[todo, None])
    if j.size:
        start = todo[start]
        trial = v[:, start] + _HALVINGS[j] * step[:, start]
        res = system.residual(trial.T)
        norm = np.abs(res).max(axis=1)
        ok = np.flatnonzero(accepted(trial, norm, start, j))
        lead = np.ones(ok.size, dtype=bool)
        lead[1:] = start[ok[1:]] != start[ok[:-1]]
        ok = ok[lead]
        pick[start[ok]], rows[:, start[ok]], norms[start[ok]] = j[ok], res.T[:, ok], norm[ok]
    return pick, rows.T, norms


def _newton_steps(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J[i] step[i] = rhs[i] for every i; (steps, singular mask).

    A batched solve raises if any member is singular; then each half of the
    batch is solved the same way, so only the halves that hold a singular
    member split further, and only the singular members fail.  One singular
    member among B costs at most 2 ceil(log2 B) + 1 solves.  The batched solve
    factors each matrix on its own, so every step is the one its member gets
    alone.
    """
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0], np.zeros(len(rhs), dtype=bool)
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full_like(rhs, np.nan), np.ones(1, dtype=bool)
        half = len(rhs) // 2
        lo, lo_singular = _newton_steps(J[:half], rhs[:half])
        hi, hi_singular = _newton_steps(J[half:], rhs[half:])
        return np.concatenate([lo, hi]), np.concatenate([lo_singular, hi_singular])


def _near(a, b) -> np.ndarray:
    """Whether a is the same metric as b: within DEDUP_RTOL of b in the max
    norm, relative to max(1, max|b|).  ``a`` is one full x or a stack of rows
    (one answer per row)."""
    b = np.asarray(b, dtype=float)
    scale = max(1.0, np.abs(b).max())
    return np.abs(np.asarray(a, dtype=float) - b).max(axis=-1) <= DEDUP_RTOL * scale


def _record_order(rec: EinsteinRecord):
    return (rec.I1 if rec.I1 is not None else math.inf, rec.x)


@dataclass
class MultistartResult:
    records: list[EinsteinRecord]
    diagnostics: dict


def multistart_search(system: EinsteinSystem, n_starts: int = 400, seed: int = 0,
                      engine_tol: float = DEFAULT_EINSTEIN_TOL,
                      closed: Sequence[EinsteinRecord] = ()) -> MultistartResult:
    """Seeded multistart Newton search of ``system``, each metric kept once, in one pass.

    Starts are log-uniform in [1e-2, 1e2] per unknown and are iterated as one
    batch.  Converged roots with a component under BOUNDARY_FLOOR are
    degenerate limits of the system and are discarded (counted in
    ``boundary_discarded``); the heuristic search makes no completeness claim.
    The rest are taken in start order and matched (``_near`` on the full x)
    against the metrics kept so far, the valid ``closed`` records first: a
    root that matches is counted in ``duplicates``, and only a root that
    matches nothing is validated by the engine and annotated with I1.  A root
    the engine rejects stays kept, so its copies are counted, not validated
    again.

    Returns the kept valid records, the closed ones included, sorted by
    (I1, x); identical seeds give identical record lists.  In the
    diagnostics, ``newton_outcomes`` counts each start's Newton outcome
    (NEWTON_OUTCOMES), and the counts sum to ``starts``; ``search_missed``
    lists the valid closed records that no root matched, and
    ``invalid_closed_forms`` the closed records the engine rejected.
    """
    if n_starts < 0:
        raise ValueError(f"n_starts must be >= 0, got {n_starts}")
    rng = np.random.default_rng(seed)
    starts = 10.0 ** rng.uniform(-2.0, 2.0, (n_starts, system.size))
    roots, outcomes = newton_solve(system, starts)
    tally = {name: int(np.count_nonzero(outcomes == name)) for name in NEWTON_OUTCOMES}
    roots = roots[outcomes == "converged"]
    inside = roots.min(axis=1) >= BOUNDARY_FLOOR
    roots = roots[inside]
    xs = system.full_x(roots)

    records = dedup_records(closed)
    new = np.ones(len(roots), dtype=bool)  # matches no kept metric
    for rec in records:
        new &= ~_near(xs, rec.x)
    validated = rejected = 0
    while new.any():
        i = int(np.argmax(new))
        new &= ~_near(xs, xs[i])
        rec = system.record(xs[i], roots[i, -1], provenance="numeric", engine_tol=engine_tol)
        validated += 1
        if rec.valid:
            records.append(rec)
        else:
            rejected += 1
    records.sort(key=_record_order)
    diag = {"starts": n_starts, "converged": tally["converged"],
            "failed": n_starts - tally["converged"],
            "boundary_discarded": int(np.count_nonzero(~inside)),
            "engine_rejected": rejected, "duplicates": len(roots) - validated,
            "newton_outcomes": tally,
            "search_missed": [rec.provenance for rec in closed
                              if rec.valid and not _near(xs, rec.x).any()],
            "invalid_closed_forms": [rec.provenance for rec in closed if not rec.valid]}
    return MultistartResult(records=records, diagnostics=diag)


def closed_form_scheme1(n: int, engine_tol: float = DEFAULT_EINSTEIN_TOL) -> list[EinsteinRecord]:
    """The two closed-form solution families of the three-class ansatz.

    Always returns the bi-invariant record x = (1, 1, 1), lambda = n/8,
    I1 = n^2 - 1.  For n >= 3 also the second family x1 = x3 = (3n+2)/(n-2),
    with lambda = n(n-2)(5n+6) / (8(3n+2)^2).  n = 2 has only the bi-invariant
    solution (the second family divides by n - 2).  Every record is validated
    against the curvature engine.
    """
    system = EinsteinSystem(1, n)
    records = [system.record((1.0, 1.0, 1.0), n / 8.0, provenance="closed_form_1",
                             engine_tol=engine_tol)]
    if n >= 3:
        X = (3.0 * n + 2.0) / (n - 2.0)
        lam = n * (n - 2.0) * (5.0 * n + 6.0) / (8.0 * (3.0 * n + 2.0) ** 2)
        records.append(system.record((X, 1.0, X), lam, provenance="closed_form_2",
                                     engine_tol=engine_tol))
    return records


def branch_x1(n: int, p: int, sign: int) -> float:
    """The +/- root x1 = (pqn +/- sqrt(pq(p^2-1)(q^2-1))) / (q(p^2+pq+q^2-1)).

    Both roots are positive for p, q >= 1: pq n^2 >= 4 p^2 q^2 > (p^2-1)(q^2-1),
    so the square root is below pqn.
    """
    q = n - p
    disc = p * q * (p * p - 1) * (q * q - 1)
    S = p * p + p * q + q * q - 1
    return (p * q * n + sign * math.sqrt(disc)) / (q * S)


def branch_x4_lambda(n: int, p: int, x1: float) -> tuple[float, float]:
    """x4 and lambda implied by the four-class system at a branch root x1.

    Equation 1 gives lambda = (p + q x1^2) / (8 x1); equation 4 then fixes
    x4 = 16 lambda / (p q n^2).
    """
    q = n - p
    lam = (p + q * x1 * x1) / (8.0 * x1)
    x4 = 16.0 * lam / (p * q * n * n)
    return x4, lam


def printed_branch_x4_lambda(n: int, p: int, x1: float) -> tuple[float, float]:
    """The transcribed closed-form x4 and lambda expressions, evaluated verbatim.

    x4 = 2 (2p(p+q) + (1-p^2) + (1-q^2)) / (1+pq) * x1 and
    lambda = q / (16 p (p+q)^2) * x4.  These do not satisfy the system's
    fourth equation away from q = 1-like degenerations; kept for the audit.
    """
    q = n - p
    x4 = 2.0 * (2.0 * p * (p + q) + (1.0 - p * p) + (1.0 - q * q)) / (1.0 + p * q) * x1
    lam = q / (16.0 * p * (p + q) ** 2) * x4
    return x4, lam


def closed_form_scheme2(n: int, p: int,
                        engine_tol: float = DEFAULT_EINSTEIN_TOL) -> list[EinsteinRecord]:
    """Closed-form solution sets of the four-class ansatz for SU(p) x SU(q).

    Returns the bi-invariant solution x = (1, 1, 1, 2/(pqn)), lambda = n/8,
    plus both +/- branch solutions with x2 = (q/p) x1 and x4, lambda taken
    from the system's own equations.  Branch records carry an audit note when
    the verbatim transcribed x4/lambda expressions disagree with the values
    that actually solve the system.  Records that fail the curvature engine
    are flagged invalid, not dropped.

    At q = 1 (or p = 1) both branches collapse onto the bi-invariant solution;
    at p = q the + branch does.  Constants of empty blocks are reported as 1.
    Each closed form is validated by the engine on its own, coincident or not.
    """
    system = EinsteinSystem(2, n, p)
    q = n - p
    records = [system.record((1.0, 1.0, 1.0, 2.0 / (p * q * n)), n / 8.0,
                             provenance="closed_form_1", engine_tol=engine_tol)]
    for sign, provenance in ((+1, "closed_form_2_plus"), (-1, "closed_form_2_minus")):
        x1 = branch_x1(n, p, sign)
        x2 = q / p * x1
        x4, lam = branch_x4_lambda(n, p, x1)
        x4_printed, lam_printed = printed_branch_x4_lambda(n, p, x1)
        rec = system.record((x1, x2, 1.0, x4), lam, provenance=provenance,
                            engine_tol=engine_tol)
        if not (math.isclose(x4, x4_printed, rel_tol=1e-9)
                and math.isclose(lam, lam_printed, rel_tol=1e-9)):
            note = (f"transcribed closed form gives x4={x4_printed:.9g}, "
                    f"lambda={lam_printed:.9g}; system-consistent values "
                    f"x4={x4:.9g}, lambda={lam:.9g} verified by the engine")
            rec = replace(rec, notes=note if rec.notes is None else rec.notes + "; " + note)
        records.append(rec)
    return records


def dedup_records(records: list[EinsteinRecord]) -> list[EinsteinRecord]:
    """The valid records, each metric (``_near`` on x) kept once as its first
    record, sorted by (I1, x)."""
    out: list[EinsteinRecord] = []
    for rec in records:
        if rec.valid and not any(_near(rec.x, other.x) for other in out):
            out.append(rec)
    out.sort(key=_record_order)
    return out


def solve_configuration(scheme: int, n: int, p: int | None = None,
                        n_starts: int = 400, seed: int = 0,
                        engine_tol: float = DEFAULT_EINSTEIN_TOL) -> MultistartResult:
    """Closed forms plus multistart for one (scheme, n, p), each metric once.

    The closed-form records are always included and come first: a root of
    the multistart (``multistart_search`` with ``closed``) that matches one
    is counted in ``duplicates`` and is not validated again.  The multistart
    is the audit that there are no further isolated solutions within reach of
    the seeded search; the diagnostics flag ``search_missed`` lists the
    closed-form records that no root matched.
    """
    system = EinsteinSystem(scheme, n, p)
    if scheme == 1:
        closed = closed_form_scheme1(n, engine_tol=engine_tol)
    else:
        closed = closed_form_scheme2(n, p, engine_tol=engine_tol)
    return multistart_search(system, n_starts, seed, engine_tol, closed)
