"""Plain-text cache for structure constants, keyed by (scheme, n, p).

The command line does not use it: structure constants build in milliseconds
from index rules, faster than a file loads.  It stays a library for saving
and loading f.

Format (diffable, one file per configuration, named f_s{scheme}_n{n}_p{p}.sc):

    line 1: ``scheme n p d nnz``    (p is 0 for the three-class basis)
    line 2: the d Gram diagonal entries
    rest:   one ``a b c value`` record per nonzero f^c_ab, 0-based indices,
            in the order of (c, a, b)

``nnz`` is the number of records.  Values are written with repr(), so a
load/save round trip is bit-exact.  Files are written atomically and checked
when read (see load_structure_constants).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from . import liealg
from .liealg import StructureConstants
from .sparse import Nonzeros


class CacheError(ValueError):
    """A cache file that does not hold what its header and name say."""


def cache_filename(scheme: int, n: int, p: int | None) -> str:
    return f"f_s{scheme}_n{n}_p{0 if p is None else p}.sc"


def save_structure_constants(path: str | Path, sc: StructureConstants) -> Path:
    """Write the file next to its final name, then move it there in one step,
    so a concurrent reader sees either no file or a complete one.  Raises
    ValueError on the f of ``formed_structure_constants``, which is not all of f."""
    path = Path(path)
    f = sc.all_of_f()
    lines = [f"{sc.scheme} {sc.n} {0 if sc.p is None else sc.p} {sc.d} {f.nnz}"]
    lines.append(" ".join(repr(float(v)) for v in sc.gram_diag))
    c, a, b = (idx.tolist() for idx in f.index)
    lines += [f"{ai} {bi} {ci} {v!r}" for ci, ai, bi, v in zip(c, a, b, f.values.tolist())]
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            out.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path


def load_structure_constants(path: str | Path) -> StructureConstants:
    """Read a cache file, checking it against its header and the rebuilt basis.

    Raises CacheError when the file is malformed or truncated, an index is out
    of range, or the Gram diagonal differs from the basis the header names.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    try:
        scheme, n, p, d, nnz = (int(t) for t in lines[0].split())
        p = None if scheme == 1 else p  # the header writes 0 for scheme 1
        gram_diag = np.array([float(t) for t in lines[1].split()])
        rows = [line.split() for line in lines[2:] if line.strip()]
        if any(len(r) != 4 for r in rows):
            raise ValueError("a record does not have 4 fields")
        a, b, c = (np.array([int(r[k]) for r in rows], dtype=np.intp) for k in range(3))
        values = np.array([float(r[3]) for r in rows])
        basis = liealg.build_basis(scheme, n, p)
    except (ValueError, IndexError) as exc:
        raise CacheError(f"{path}: malformed cache file ({exc})") from None

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CacheError(f"{path}: {what}; delete the file to rebuild it")

    check(basis.dim == d, f"dimension {d} does not match scheme={scheme} n={n} p={p}")
    check(len(rows) == nnz, f"{len(rows)} records, header says {nnz}")
    check(gram_diag.shape == (d,), f"expected {d} Gram entries, got {gram_diag.size}")
    T = basis.generators
    check(np.allclose(gram_diag, np.real(np.einsum("aij,aji->a", T, T)), rtol=1e-12, atol=0.0),
          "Gram diagonal does not match the basis")
    check(all(np.all((0 <= idx) & (idx < d)) for idx in (a, b, c)),
          f"an index is outside 0..{d - 1}")
    key = (c * d + a) * d + b
    check(bool(np.all(np.diff(key) > 0)), "records are not distinct and in order")
    check(bool(np.all(np.isfinite(values) & (values != 0.0))), "a value is zero or not finite")
    return StructureConstants(
        d=d,
        nonzeros=Nonzeros((d, d, d), (c, a, b), values),
        gram_diag=gram_diag,
        scheme=scheme,
        n=n,
        p=p,
        class_of=basis.class_of.copy(),
    )


def fetch_structure_constants(scheme: int, n: int, p: int | None,
                              cache_dir: str | Path | None = None) -> StructureConstants:
    """Load structure constants from the cache, computing and storing on miss."""
    path = None if cache_dir is None else Path(cache_dir) / cache_filename(scheme, n, p)
    if path is not None and path.exists():
        return load_structure_constants(path)
    sc = liealg.structure_constants_of(scheme, n, p)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_structure_constants(path, sc)
    return sc
