from functools import lru_cache

import numpy as np
import pytest

from su_einstein import liealg

# the tests' own memo of f: many tests read the same few configurations
sc_for = lru_cache(maxsize=64)(liealg.structure_constants_of)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
