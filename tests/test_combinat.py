import random
from fractions import Fraction

import pytest

from virasoro.combinat import (
    QSeries,
    num_partitions,
    partition_key,
    partitions_of,
    transpose,
)


def test_partition_enumeration_examples():
    assert partitions_of(0) == ((),)
    assert partitions_of(2) == ((2,), (1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_partition_order_is_stable_golden():
    # descending lexicographic order, frozen once and for all: this order
    # fixes every Gram matrix layout in the package.
    assert partitions_of(6) == (
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (3, 1, 1, 1),
        (2, 2, 2),
        (2, 2, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    )


def test_counts_match_enumeration_up_to_30():
    for n in range(31):
        assert num_partitions(n) == len(partitions_of(n))


def test_transpose_examples():
    assert transpose((3, 3)) == (2, 2, 2)
    assert transpose(()) == ()
    assert transpose((2, 1)) == (2, 1)


def test_transpose_involution():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(0, 20)
        for f in [rng.choice(partitions_of(n))] if n else [()]:
            assert transpose(transpose(f)) == f


def test_partition_keys():
    assert partition_key((3, 1)) == "[3,1]"
    assert partition_key(()) == "[]"


def test_qseries_beyond_order():
    # coefficients past the order are dropped, missing ones are zero
    s = QSeries([1, 1, 2, 3, 5], Fraction(1, 4), 3)
    assert s.coeffs == (1, 1, 2, 3) and s.order == 3
    assert QSeries([1], 0, 2).coeffs == (1, 0, 0)


def test_qseries_equality_alignment():
    a = QSeries([0, 0, 1, 2], 0, 3)
    b = QSeries([1, 2], 2, 1)
    assert a == b
    assert QSeries([1], 0, 0) != QSeries([1], 1, 0)


def test_qseries_is_unhashable():
    # equality ignores the truncation order, which no hash could follow
    with pytest.raises(TypeError):
        hash(QSeries([1]))


def test_qseries_json():
    s = QSeries([1, 0, 2], Fraction(1, 16), 2)
    assert s.to_json() == {
        "leading_exponent": "1/16",
        "coeffs": ["1", "0", "2"],
        "order": 2,
    }
