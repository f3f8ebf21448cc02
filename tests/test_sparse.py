"""sparse.join against a brute-force list of pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su_einstein.sparse import join


def brute_force(left, right):
    return [(i, j) for i, a in enumerate(left) for j, b in enumerate(right) if a == b]


def joined(left, right):
    li, ri = join(np.array(left, dtype=np.intp), np.array(right, dtype=np.intp))
    return list(zip(li.tolist(), ri.tolist()))


@pytest.mark.parametrize("left, right", [
    ([], []),
    ([], [0, 3]),
    ([2, 5], []),
    ([9, 0, 9], [1, 0, 0]),      # left keys above right.max()
    ([0, 4], [7, 8, 4, 11]),     # keys that appear on one side only
    ([3] * 7, [3] * 5 + [1]),    # heavy duplicates
])
def test_join_edge_cases(left, right):
    assert joined(left, right) == brute_force(left, right)


def key_lists(top):
    keys = st.lists(st.integers(min_value=0, max_value=top), max_size=40)
    return st.tuples(keys, keys)


@settings(max_examples=300, deadline=None)
@given(sides=st.integers(min_value=0, max_value=60).flatmap(key_lists))
def test_join_equals_brute_force_in_order(sides):
    left, right = sides
    assert joined(left, right) == brute_force(left, right)
