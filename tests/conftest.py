import numpy as np
import pytest

from su_einstein.liealg import shared_structure_constants as sc_for


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
