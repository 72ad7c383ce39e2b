import pytest
from hypothesis import given, strategies as st

from markedgc.partitions import (
    check_partition,
    conjugate,
    cycle_types,
    double,
    enumerate_partitions,
    erase_first_column,
    is_partition,
    pad_ones,
    parse_partition,
    size,
    strip_ones,
)


def brute_partitions(n):
    """Independent oracle: all partitions of n by direct recursion."""
    def rec(left, cap):
        if left == 0:
            yield ()
            return
        for first in range(min(left, cap), 0, -1):
            for rest in rec(left - first, first):
                yield (first,) + rest
    return set(rec(n, n))


partition_strategy = st.integers(0, 10).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n) or ((),))
)


def test_is_partition():
    assert is_partition((3, 1))
    assert is_partition(())
    assert not is_partition((1, 3))
    assert not is_partition((2, 0))


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))


@pytest.mark.parametrize("n", range(9))
def test_enumeration_matches_brute_force(n):
    assert set(enumerate_partitions(n)) == brute_partitions(n)


@pytest.mark.parametrize("n", range(9))
def test_even_only_enumeration(n):
    # the doubles of the partitions of n are the even partitions of 2n,
    # in the same reverse lexicographic order
    even = [lam for lam in brute_partitions(2 * n) if all(p % 2 == 0 for p in lam)]
    doubles = [double(tau) for tau in enumerate_partitions(n)]
    assert doubles == sorted(even, reverse=True)


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    assert conjugate((2, 2)) == (2, 2)


@given(partition_strategy)
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert size(conjugate(lam)) == size(lam)


def test_pad_ones_and_erase():
    assert pad_ones((3, 1), 2) == (3, 1, 1, 1)
    assert pad_ones((2,), 0) == (2,)
    assert erase_first_column((3, 1)) == (2,)
    assert erase_first_column((1, 1)) == ()
    assert strip_ones((3, 1, 1)) == ((3,), 2)
    assert strip_ones((2, 2)) == ((2, 2), 0)
    assert strip_ones((1, 1, 1)) == ((), 3)
    assert strip_ones(()) == ((), 0)


@given(partition_strategy, st.integers(0, 4))
def test_strip_ones_undoes_pad_ones(lam, j):
    head, ones = strip_ones(pad_ones(lam, j))
    assert pad_ones(head, ones) == pad_ones(lam, j)
    assert 1 not in head
    assert ones == j + lam.count(1)


@given(partition_strategy, st.integers(0, 4))
def test_erase_undoes_column_growth(lam, j):
    padded = pad_ones(lam, j)
    erased = erase_first_column(padded)
    assert size(erased) == size(padded) - len(padded)


def test_double():
    assert double((2, 1)) == (4, 2)
    assert double(()) == ()


def test_cycle_types_is_partition_list():
    assert set(cycle_types(4)) == brute_partitions(4)


def test_format_parse_roundtrip():
    for lam in enumerate_partitions(6):
        text = "[" + ",".join(map(str, lam)) + "]"
        assert parse_partition(text) == lam
    with pytest.raises(ValueError):
        parse_partition("3,1")
