"""Layer spans and counters, recorded around su_einstein's public functions.

Nothing in ``src/`` knows about tracing: ``Tracer.installed()`` replaces the
module attributes listed below with wrappers for the duration of a traced
pass and restores them afterwards.  The program reaches these functions
through module attributes at call time (``curvature.riemann``,
``liealg.structure_constants``, ...), so the wrappers see every call.

A span records (name, parent span, start, end); spans stay in memory and are
written out when the benchmark ends.  The hot reduced-system methods
(``EinsteinSystem.residual`` and ``.jacobian``, tens of thousands of calls per
catalog) are only counted, so the traced run stays close to the untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter

# module -> {attribute: span name}
SPANNED = {
    "liealg": {
        "build_scheme1_basis": "liealg.build_basis",
        "build_scheme2_basis": "liealg.build_basis",
        "structure_constants": "liealg.structure_constants",
    },
    "curvature": {
        "levi_civita": "curvature.levi_civita",
        "riemann": "curvature.riemann",
        "ricci": "curvature.ricci",
        "ricci_fast": "curvature.ricci_fast",
        "riem_norm_sq": "curvature.riem_norm_sq",
        "einstein_residual": "curvature.einstein_residual",
        "invariant_I1": "curvature.invariant_I1",
    },
    "solver": {
        "newton_solve": "solver.newton_solve",
        "multistart_search": "solver.multistart_search",
        "solve_configuration": "solver.solve_configuration",
        "closed_form_scheme1": "solver.closed_form",
        "closed_form_scheme2": "solver.closed_form",
        "dedup_records": "solver.dedup",
    },
    "catalog": {
        "enumerate_metrics": "catalog.enumerate_metrics",
        "assign_classes": "catalog.assign_classes",
        # catalog binds solve_configuration by name at import
        "solve_configuration": "solver.solve_configuration",
    },
    "cache": {
        "fetch_structure_constants": "cache.fetch_structure_constants",
        "save_structure_constants": "cache.save",
        "load_structure_constants": "cache.load",
    },
    "cli": {
        "main": "cli.main",
        "emit_json": "cli.emit_json",
    },
}
SPANNED_METHODS = {("solver", "EinsteinSystem", "record"): "solver.record"}
COUNTED_METHODS = {
    ("solver", "EinsteinSystem", "residual"): "solver.residual.calls",
    ("solver", "EinsteinSystem", "jacobian"): "solver.jacobian.calls",
}


class Tracer:
    """In-memory spans and counts for one traced pass."""

    def __init__(self):
        self.spans: list[tuple[str, int | None, float, float] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, parent, t0, t1)
        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _riemann_bytes(self, fn):
        """Count the bytes of the dense d^4 tensor each riemann call computes."""
        @functools.wraps(fn)
        def wrapper(gamma, *args, **kwargs):
            self.counts["curvature.riemann.bytes_computed"] += gamma.shape[0] ** 4 * 8
            return fn(gamma, *args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions in su_einstein for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper(getattr(owner, attr)))

        try:
            for modname, attrs in SPANNED.items():
                module = importlib.import_module(f"su_einstein.{modname}")
                for attr, name in attrs.items():
                    patch(module, attr, functools.partial(self._span, name))
            curvature = importlib.import_module("su_einstein.curvature")
            patch(curvature, "riemann", self._riemann_bytes)
            for table, make in ((SPANNED_METHODS, self._span), (COUNTED_METHODS, self._counted)):
                for (modname, cls, attr), name in table.items():
                    owner = getattr(importlib.import_module(f"su_einstein.{modname}"), cls)
                    patch(owner, attr, functools.partial(make, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds (minus child spans)."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return out

    def root_seconds(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(t1 - t0 for _, parent, t0, t1 in self.spans if parent is None)
