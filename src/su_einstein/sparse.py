"""Nonzero-entry tensors and the operations the engine builds on them.

A tensor is kept as its nonzero entries: one integer index array per slot and
a value array.  Contractions are key joins: every pair of entries whose
contracted indices agree is formed explicitly (``join``), its product is
computed elementwise, and products that land on the same output index are
summed (``sum_by_key``).  Cost and memory scale with the number of pairs, not
with the dense size of the operands or of the result.

``sum_by_key`` groups the keys with one stable sort: the runs of equal
sorted keys, from their starts and lengths, number the groups, and two
``np.bincount``s add the terms of each key in input order.  The sort is a
plain sort of key * size + position where that fits in int64, and a stable
``argsort`` beyond.  A sum therefore does not depend on the sort, and summing
a subset of the keys whose terms keep their relative order gives the same
floats.  That lets a caller split a large sum into blocks of keys
(``blocks``) to bound its memory.  Output indices become keys by row-major
arithmetic; ``check_key_range`` rejects a key range that int64 cannot hold,
where the arithmetic would wrap silently, and ``row_major_order`` sorts
distinct entries lexicographically there instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative size below which a summed entry is an exact zero: the sum cancelled
# to within the rounding error of adding up its terms.
CANCEL_RTOL = 64 * np.finfo(float).eps
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Nonzeros:
    """The nonzero entries of a real tensor of the given shape.

    ``index[k][i]`` is slot k of entry i; entries are distinct and sorted by
    their row-major linear index.  ``np.asarray`` materializes the dense
    tensor, which is meant for tests and small shapes only.
    """

    shape: tuple[int, ...]
    index: tuple[np.ndarray, ...]
    values: np.ndarray

    def __post_init__(self):
        for arr in (*self.index, self.values):
            arr.flags.writeable = False

    @classmethod
    def from_sums(cls, shape, key, values) -> "Nonzeros":
        """Sum the values at equal row-major linear indices ``key`` into ``shape``
        and drop the sums that cancel to zero."""
        key, total, scale = sum_by_key(key, values)
        keep = np.abs(total) > CANCEL_RTOL * scale
        return cls(tuple(int(s) for s in shape), np.unravel_index(key[keep], shape),
                   total[keep])

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=dtype)
        out[self.index] = self.values
        return out


def join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with ``left[i] == right[j]``, as two index arrays.

    Keys are non-negative integers; the work and memory include one count per
    key value up to the largest key on either side.  Pairs come in ascending
    order of i, and the pairs of one i in ascending order of j.
    """
    order = right.argsort(kind="stable")
    end = np.bincount(right, minlength=int(left.max(initial=-1)) + 1)
    counts = end[left]
    end.cumsum(out=end)  # end[k]: where the run of key k ends in right[order]
    lo = end[left] - counts
    li = np.arange(left.size).repeat(counts)
    # position within the matching run of the right side
    start = (counts.cumsum() - counts - lo).repeat(counts)
    ri = order[np.arange(li.size) - start]
    return li, ri


def sum_by_key(key: np.ndarray, values: np.ndarray):
    """Distinct keys in ascending order, the sum of the values at each, and the
    sum of their absolute values (the scale of the rounding error).

    Keys are non-negative int64.  Each sum adds its values in input order.
    """
    n = key.size
    if n and int(key.max()) < _INT64_MAX // n:
        # key * n + position: one sort orders by key, then by position
        packed = key * n + np.arange(n)
        packed.sort()
        ordered = packed // n
        order = packed - ordered * n
    else:
        order = key.argsort(kind="stable")
        ordered = key[order]
    start = np.empty(n, dtype=bool)  # where a run of equal keys starts
    start[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=start[1:])
    first = start.nonzero()[0]
    uniq = ordered[first]
    # the group of each sorted position: group k repeated over its run
    length = np.empty_like(first)
    np.subtract(first[1:], first[:-1], out=length[:-1])
    length[-1:] = n - first[-1:]
    group = np.arange(first.size).repeat(length)
    values = values[order]  # each key's values stay in input order
    total = np.bincount(group, weights=values, minlength=uniq.size)
    scale = np.bincount(group, weights=np.abs(values), minlength=uniq.size)
    return uniq, total, scale


def row_major_order(index: tuple[np.ndarray, ...], shape: tuple[int, ...]) -> np.ndarray:
    """The permutation that sorts distinct entries by their row-major linear
    index: one sort of the linear keys, in the narrowest integer type that
    holds them, or ``np.lexsort`` (about ten times slower) where they overflow
    int64.  The keys are distinct, so both give the one order."""
    size = math.prod(shape)
    if size - 1 > _INT64_MAX:
        return np.lexsort(index[::-1])
    key = index[0]
    for idx, k in zip(index[1:], shape[1:]):
        key = key * k + idx
    return key.astype(np.min_scalar_type(size - 1)).argsort()


def check_key_range(*dims: int) -> None:
    """Raise ValueError unless the row-major linear keys of an array of shape
    ``dims`` fit in int64."""
    if math.prod(int(k) for k in dims) - 1 > _INT64_MAX:
        raise ValueError(f"keys of shape {dims} overflow int64")


def blocks(cost: np.ndarray, budget: float) -> list[tuple[int, int]]:
    """Split the items 0 .. len(cost)-1, in order, into runs [lo, hi) whose
    total cost stays within ``budget``; an item that alone exceeds it is a run
    of its own."""
    total = cost.cumsum()
    out = []
    lo = 0
    while lo < total.size:
        spent = total[lo - 1] if lo else 0
        hi = max(int(total.searchsorted(spent + budget, side="right")), lo + 1)
        out.append((lo, hi))
        lo = hi
    return out
