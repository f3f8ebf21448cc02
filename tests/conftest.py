from functools import lru_cache

import numpy as np
import pytest

from su_einstein import liealg

# the tests' own memo of f: many tests read the same few configurations
sc_for = lru_cache(maxsize=64)(liealg.structure_constants_of)


def formed_entries(sc) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """(index, values): the entries of a full f with a formed generator
    (``class_rows[0]``) in some slot, in f's order."""
    formed = np.zeros(sc.d, dtype=bool)
    formed[sc.class_rows[0]] = True
    c, a, b = sc.nonzeros.index
    keep = formed[c] | formed[a] | formed[b]
    return tuple(idx[keep] for idx in sc.nonzeros.index), sc.nonzeros.values[keep]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
