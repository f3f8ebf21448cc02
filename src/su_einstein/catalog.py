"""Enumeration and classification of the Einstein metrics found per n.

For a given n the catalog solves the three-class ansatz once and the
four-class ansatz for every unordered split 2 <= p <= n/2 (splits with
p or q below 2 add nothing: q = 0 is the three-class family itself and
q = 1 only reproduces the bi-invariant metric).  Solutions are grouped into
equivalence classes by the scale-free invariant I1; equal invariants are
necessary but not sufficient for equivalence, so the classification is at
the resolution of I1 plus the p <-> q relabeling, and says so.

The enumerated count is compared against the closed-form count n+1 for even
n and n-1 for odd n; a disagreement is reported, not suppressed (a direct
tally of the case analysis gives n-1 for odd n but fewer than n+1 for even
n, and the catalog's job is to audit the claim).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .curvature import DEFAULT_EINSTEIN_TOL
from .solver import EinsteinRecord, solve_configuration

I1_CLASS_RTOL = 1e-6


def paper_count(n: int) -> int:
    """The closed-form inequivalent-metric count: 2k+1 for n=2k, 2k for n=2k+1."""
    return n + 1 if n % 2 == 0 else n - 1


@dataclass
class CatalogEntry:
    """All records found for one n, grouped into I1 equivalence classes."""

    n: int
    records: list[EinsteinRecord]
    class_I1: list[float]
    count_inequivalent: int
    paper_count: int
    agreement: bool
    search_complete: bool
    diagnostics: dict

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "count_inequivalent": self.count_inequivalent,
            "paper_count": self.paper_count,
            "agreement": self.agreement,
            "search_complete": self.search_complete,
            "class_I1": list(self.class_I1),
            "records": [r.as_dict() for r in self.records],
            "diagnostics": self.diagnostics,
        }


def assign_classes(records: list[EinsteinRecord]) -> tuple[list[EinsteinRecord], list[float]]:
    """Group records into classes of (relatively) equal I1.

    Records are taken in I1 order and chained: a record joins the previous
    class when its I1 is within I1_CLASS_RTOL (relative) of the class
    representative.  Returns the records with eq_class set, sorted by
    (eq_class, x) so that rounding in I1 does not order a class, plus the
    class representatives.
    """
    valid = [r for r in records if r.valid and r.I1 is not None]
    valid.sort(key=lambda r: (r.I1, r.x))
    reps: list[float] = []
    out: list[EinsteinRecord] = []
    for rec in valid:
        if reps and abs(rec.I1 - reps[-1]) <= I1_CLASS_RTOL * max(1.0, abs(reps[-1])):
            cls = len(reps) - 1
        else:
            reps.append(rec.I1)
            cls = len(reps) - 1
        out.append(replace(rec, eq_class=cls))
    out.sort(key=lambda r: (r.eq_class, r.x))
    return out, reps


def enumerate_metrics(n: int, n_starts: int = 400, seed: int = 0,
                      engine_tol: float = DEFAULT_EINSTEIN_TOL) -> CatalogEntry:
    """Enumerate all ansatz configurations for n and classify the solutions.

    Runs the three-class ansatz and the four-class ansatz for each unordered
    split (p <= q, p >= 2); the bi-invariant solution found by every
    configuration coalesces into a single class.  Under-resolved searches
    (numeric search missing a closed-form solution) are flagged via
    ``search_complete``, never silently accepted.  A bad n raises when the
    first configuration, the three-class one, builds its system.
    """
    per_config = {}
    records: list[EinsteinRecord] = []
    configs = [(1, None, seed)] + [(2, p, seed + p) for p in range(2, n // 2 + 1)]
    for scheme, p, config_seed in configs:
        result = solve_configuration(scheme, n, p, n_starts=n_starts, seed=config_seed,
                                     engine_tol=engine_tol)
        records.extend(result.records)
        per_config["scheme1" if p is None else f"scheme2_p{p}"] = result.diagnostics
    search_complete = not any(d["search_missed"] for d in per_config.values())

    classed, reps = assign_classes(records)
    count = len(reps)
    expected = paper_count(n)
    return CatalogEntry(
        n=n,
        records=classed,
        class_I1=reps,
        count_inequivalent=count,
        paper_count=expected,
        agreement=count == expected,
        search_complete=search_complete,
        diagnostics={"configurations": per_config},
    )
