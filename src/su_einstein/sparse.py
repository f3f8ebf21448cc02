"""Nonzero-entry tensors and the two operations the engine builds on them.

A tensor is kept as its nonzero entries: one integer index array per slot and
a value array.  Contractions are key joins: every pair of entries whose
contracted indices agree is formed explicitly (``join``), its product is
computed elementwise, and products that land on the same output index are
summed (``sum_by_key``).  Cost and memory scale with the number of pairs, not
with the dense size of the operands or of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative size below which a summed entry is an exact zero: the sum cancelled
# to within the rounding error of adding up its terms.
CANCEL_RTOL = 64 * np.finfo(float).eps


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
    def from_sums(cls, shape, index, values) -> "Nonzeros":
        """Sum duplicate entries and drop the ones that cancel to zero."""
        key, total, scale = sum_by_key(np.ravel_multi_index(tuple(index), shape), values)
        keep = np.abs(total) > CANCEL_RTOL * scale
        return cls(tuple(int(s) for s in shape), np.unravel_index(key[keep], shape),
                   total[keep])

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.index] = self.values
        return out

    def __array__(self, dtype=None, copy=None):
        out = self.toarray()
        return out if dtype is None else out.astype(dtype)


def join(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (i, j) with ``left[i] == right[j]``, as two index arrays.

    Keys are non-negative integers; the work and memory include one count per
    key value up to the largest key on either side.  Pairs come in ascending
    order of i, and the pairs of one i in ascending order of j.
    """
    order = np.argsort(right, kind="stable")
    end = np.bincount(right, minlength=int(left.max(initial=-1)) + 1)
    counts = end[left]
    np.cumsum(end, out=end)  # end[k]: where the run of key k ends in right[order]
    lo = end[left] - counts
    li = np.repeat(np.arange(left.size), counts)
    # position within the matching run of the right side
    start = np.repeat(np.cumsum(counts) - counts - lo, counts)
    ri = order[np.arange(li.size) - start]
    return li, ri


def sum_by_key(key: np.ndarray, values: np.ndarray):
    """Distinct keys in ascending order, the sum of the values at each, and the
    sum of their absolute values (the scale of the rounding error)."""
    uniq, inverse = np.unique(key, return_inverse=True)
    total = np.bincount(inverse, weights=values, minlength=uniq.size)
    scale = np.bincount(inverse, weights=np.abs(values), minlength=uniq.size)
    return uniq, total, scale
