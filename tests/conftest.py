import functools

import numpy as np
import pytest

from su_einstein import build_basis, structure_constants


@functools.cache
def sc_for(scheme: int, n: int, p: int | None = None):
    """Cached structure constants (they are immutable, so tests may share them)."""
    return structure_constants(build_basis(scheme, n, p))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
