"""sparse.join against a brute-force list of pairs, sparse.sum_by_key against
the np.unique grouping it replaced, and the block and key-range helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su_einstein.sparse import blocks, check_key_range, join, row_major_order, sum_by_key

INT64_MAX = np.iinfo(np.int64).max


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


def unique_sum_by_key(key, values):
    """The grouping that sum_by_key replaced: np.unique with return_inverse."""
    uniq, inverse = np.unique(key, return_inverse=True)
    total = np.bincount(inverse, weights=values, minlength=uniq.size)
    scale = np.bincount(inverse, weights=np.abs(values), minlength=uniq.size)
    return uniq, total, scale


def assert_same_sums(key, values):
    key = np.array(key, dtype=np.int64)
    values = np.array(values, dtype=float)
    got, want = sum_by_key(key, values), unique_sum_by_key(key, values)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()
    return got


@pytest.mark.parametrize("key, values", [
    ([], []),
    ([7], [2.5]),
    ([4] * 6, [0.1, 0.2, 0.3, -0.1, 1e-17, 3.0]),   # one key, order-sensitive sum
    ([3, 1, 3, 1], [1.5, -2.0, -1.5, 2.0]),          # exact cancellations
    ([INT64_MAX, 0, INT64_MAX - 1, INT64_MAX], [1.0, 2.0, 3.0, 4.0]),
    ([INT64_MAX // 3] * 3 + [1], [0.1, 0.7, 0.2, 5.0]),
    ([INT64_MAX // 4 - 1, 0, INT64_MAX // 4 - 1, 1], [0.1, 0.7, 0.2, 5.0]),  # largest packable
])
def test_sum_by_key_edge_cases(key, values):
    assert_same_sums(key, values)


def test_sum_by_key_cancellation_is_an_exact_zero_with_a_scale():
    key, total, scale = assert_same_sums([5, 5, 2], [0.75, -0.75, 1.0])
    assert key.tolist() == [2, 5]
    assert total.tolist() == [1.0, 0.0]
    assert scale.tolist() == [1.0, 1.5]


values_st = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)


@settings(max_examples=300, deadline=None)
@given(top=st.sampled_from([0, 3, 1000, 2**40, INT64_MAX]),
       data=st.data())
def test_sum_by_key_equals_unique_grouping(top, data):
    # small ranges repeat keys many times; INT64_MAX takes the fallback sort
    entries = data.draw(st.lists(st.tuples(st.integers(0, top), values_st), max_size=60))
    key = [k for k, _ in entries]
    values = [v for _, v in entries]
    assert_same_sums(key, values)
    # values and their negatives, shuffled: every sum cancels
    twice = data.draw(st.permutations(list(zip(key + key, values + [-v for v in values]))))
    assert_same_sums([k for k, _ in twice], [v for _, v in twice])


@settings(max_examples=200, deadline=None)
@given(cost=st.lists(st.integers(0, 50), max_size=30), budget=st.integers(1, 120))
def test_blocks_cover_the_items_in_order_within_budget(cost, budget):
    runs = blocks(np.array(cost, dtype=float), budget)
    edges = [0] + [hi for _, hi in runs]
    assert [lo for lo, _ in runs] == edges[:-1]
    assert edges[-1] == len(cost)
    for lo, hi in runs:
        assert hi > lo
        assert hi - lo == 1 or sum(cost[lo:hi]) <= budget
        # greedy: the next item would have broken the budget
        if hi < len(cost):
            assert sum(cost[lo:hi + 1]) > budget


@pytest.mark.parametrize("dim", [7, 2**21 - 1, 2**21 + 1, 3 * 10**6])
def test_row_major_order_on_both_sides_of_the_int64_edge(dim, rng):
    # distinct entries of a (dim, dim, dim) tensor, many with a slot in common:
    # past 2^21 the keys overflow int64 and the order comes from np.lexsort;
    # it is the lexicographic one
    drawn = np.concatenate([rng.integers(0, 5, (200, 3)), rng.integers(0, dim, (200, 3))])
    entries = sorted({tuple(t) for t in drawn.tolist()})
    index = np.array(entries).T
    shuffled = rng.permutation(len(entries))
    order = row_major_order(index[:, shuffled], (dim, dim, dim))
    assert np.array_equal(shuffled[order], np.arange(len(entries)))


def test_check_key_range_at_the_int64_edge():
    check_key_range(2**21, 2**21, 2**21)           # largest key 2^63 - 1
    check_key_range(55108, 55108, 55108, 55108)    # d^4 keys of su(n), n <= 234
    with pytest.raises(ValueError, match="overflow int64"):
        check_key_range(2**21, 2**21, 2**21 + 1)
    with pytest.raises(ValueError, match="overflow int64"):
        check_key_range(55109, 55109, 55109, 55109)
