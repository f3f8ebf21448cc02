"""Plain-text cache for structure constants, keyed by (scheme, n, p).

The command line does not use it: structure constants build in milliseconds
from index rules, faster than a file loads.  It stays a library for saving
and loading f.

Format (diffable, one file per configuration, named f_s{scheme}_n{n}_p{p}.sc):

    line 1: ``scheme n p d nnz``    (p is 0 for the three-class basis)
    line 2: the d Gram diagonal entries
    rest:   one ``a b c value`` record per nonzero f^c_ab, 0-based indices,
            in the order of (c, a, b)

``nnz`` is the number of records, and values are written with repr().  Files
are written atomically.  A file is valid exactly when its text is what
``save_structure_constants`` writes for the f that
``liealg.structure_constants_of`` builds for the configuration its header
names, so a load parses no record: it rebuilds that f, compares the whole
text and returns the rebuilt f.  A hand-edited file is refused, and so is a
file from a build whose floats round differently (another numpy or
platform); deleting the file rebuilds it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from . import liealg
from .liealg import StructureConstants


class CacheError(ValueError):
    """A cache file that does not hold what its header and name say."""


def cache_filename(scheme: int, n: int, p: int | None) -> str:
    return f"f_s{scheme}_n{n}_p{0 if p is None else p}.sc"


def _text(sc: StructureConstants) -> str:
    """The file of ``sc``, the one text that save writes and load compares."""
    f = sc.all_of_f()
    lines = [f"{sc.scheme} {sc.n} {0 if sc.p is None else sc.p} {sc.d} {f.nnz}"]
    lines.append(" ".join(repr(float(v)) for v in sc.gram_diag))
    c, a, b = (idx.tolist() for idx in f.index)
    lines += [f"{ai} {bi} {ci} {v!r}" for ci, ai, bi, v in zip(c, a, b, f.values.tolist())]
    return "\n".join(lines) + "\n"


def save_structure_constants(path: str | Path, sc: StructureConstants) -> Path:
    """Write the file next to its final name, then move it there in one step,
    so a concurrent reader sees either no file or a complete one.  Raises
    ValueError on the f of ``formed_structure_constants``, which is not all of f."""
    path = Path(path)
    text = _text(sc)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as out:
            out.write(text)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path


def load_structure_constants(path: str | Path) -> StructureConstants:
    """The f that ``liealg.structure_constants_of`` builds for the
    configuration a cache file's header names.

    Raises CacheError when the header is malformed, its dimension is not the
    configuration's, its record count is not the file's, or the file's text is
    not what ``save_structure_constants`` writes for that f.
    """
    path = Path(path)
    try:
        text = path.read_text()  # UnicodeDecodeError is a ValueError: not UTF-8 is malformed
        scheme, n, p, d, nnz = (int(t) for t in text.partition("\n")[0].split())
        if scheme == 1:  # the header writes p = 0 for scheme 1, which has no p
            if p != 0:
                raise ValueError(f"scheme 1 with p={p}")
            p = None
        sizes = liealg.class_sizes(scheme, n, p)
    except ValueError as exc:
        raise CacheError(f"{path}: malformed cache file ({exc})") from None

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise CacheError(f"{path}: {what}; delete the file to rebuild it")

    check(sum(sizes) == d, f"dimension {d} does not match scheme={scheme} n={n} p={p}")
    records = max(text.count("\n") - 2, 0)  # the complete lines after the Gram line
    check(records == nnz, f"{records} records, header says {nnz}")
    sc = liealg.structure_constants_of(scheme, n, p)
    check(text == _text(sc), f"not the file that save_structure_constants writes for "
                             f"scheme={scheme} n={n} p={p}")
    return sc


def fetch_structure_constants(scheme: int, n: int, p: int | None,
                              cache_dir: str | Path | None = None) -> StructureConstants:
    """Load structure constants from the cache, computing and storing on miss.
    Raises CacheError when the file under the configuration's name holds
    another configuration."""
    path = None if cache_dir is None else Path(cache_dir) / cache_filename(scheme, n, p)
    if path is not None and path.exists():
        sc = load_structure_constants(path)
        if (sc.scheme, sc.n, sc.p) != (scheme, n, p):
            raise CacheError(f"{path}: holds scheme={sc.scheme} n={sc.n} p={sc.p}, not "
                             f"scheme={scheme} n={n} p={p}; delete the file to rebuild it")
        return sc
    sc = liealg.structure_constants_of(scheme, n, p)
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_structure_constants(path, sc)
    return sc
