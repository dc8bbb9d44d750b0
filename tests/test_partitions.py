import re
from itertools import permutations
from math import factorial, perm

import pytest

from classconv.partitions import (EMPTY, Partition, enumerate_partitions, partition_count,
                                  partitions_up_to)
from classconv.semigroup_algebra import SemigroupAlgebraElement, truncate
from oracles import falling_factorial, partitions_brute

P = lambda *parts: Partition(parts)


def test_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    for parts in ((2.5, 1), (2, 1.0), ("2",)):
        with pytest.raises(ValueError):
            Partition(parts)
    assert Partition(()).parts == ()


def test_bool_parts_rejected():
    # True equals and hashes as 1 but prints as True
    for parts in ((True,), (2, True), (False,)):
        with pytest.raises(ValueError, match="must be integers, got (True|False)"):
            Partition(parts)


def test_trusted_construction_matches_validated():
    shapes = partitions_up_to(8)
    for p in shapes:
        q = Partition._of(tuple(p))
        assert type(q) is Partition and q.parts == p.parts
        assert q == p and p == q and hash(q) == hash(p)
        assert repr(q) == repr(p) and q.sort_key() == p.sort_key()
    assert len({Partition._of(p.parts) for p in shapes} | set(shapes)) == len(shapes)


def test_size_length():
    assert P(3, 2, 2).size() == 7
    assert P(3, 2, 2).length() == 3
    assert EMPTY.size() == 0 and EMPTY.length() == 0


def test_multiplicity():
    assert P(3, 1).multiplicity(1) == 1
    assert EMPTY.multiplicity(5) == 0
    assert P(2, 2, 1).multiplicity(2) == 2
    with pytest.raises(ValueError):
        P(2).multiplicity(0)


def test_centralizer_size():
    assert P(2).centralizer_size() == 2
    assert P(2, 2).centralizer_size() == 8
    for k in range(6):
        assert Partition((1,) * k).centralizer_size() == factorial(k)
    assert EMPTY.centralizer_size() == 1


def test_centralizer_against_brute_force():
    # count permutations of S_4 commuting with (1,2)(3,4)
    w = {1: 2, 2: 1, 3: 4, 4: 3}
    count = 0
    for images in permutations(range(1, 5)):
        v = dict(zip(range(1, 5), images))
        if all(v[w[x]] == w[v[x]] for x in range(1, 5)):
            count += 1
    assert count == P(2, 2).centralizer_size()


def test_pad():
    assert P(3).pad(5) == P(3, 1, 1)
    assert EMPTY.pad(3) == P(1, 1, 1)
    assert P(2, 2).pad(4) == P(2, 2)
    with pytest.raises(ValueError):
        P(3).pad(2)


def test_strip_ones():
    assert P(3, 1, 1).strip_ones() == P(3)
    assert P(1, 1).strip_ones() == EMPTY
    assert P(2, 2).strip_ones() == P(2, 2)


def test_enumerate_partitions():
    assert enumerate_partitions(0) == [EMPTY]
    assert len(enumerate_partitions(4)) == 5
    assert len(enumerate_partitions(6)) == 11
    # reverse-lexicographic order is the documented canonical order
    assert [p.parts for p in enumerate_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # a negative size is refused, not read as no partitions, where g_table(-1)
    # would be {} and every scan over it would pass without a pair
    from classconv.class_algebra import g_table
    for build in (enumerate_partitions, partitions_up_to, partition_count, g_table):
        with pytest.raises(ValueError, match="cannot partition a negative integer"):
            build(-1)


@pytest.mark.parametrize("r", [True, False, 2.0])
def test_partition_sizes_must_be_integers(r):
    # True equals and hashes as 1, so a cached enumeration would read it as 1
    from classconv.characters import CharacterTable
    from classconv.class_algebra import g_table
    for build in (enumerate_partitions, partitions_up_to, partition_count,
                  CharacterTable, g_table):
        with pytest.raises(ValueError, match="partition size must be an integer"):
            build(r)


@pytest.mark.parametrize("call, message", [
    (lambda: EMPTY.pad(True), "cannot pad a partition of 0 to size True"),
    (lambda: P(1).pad(2.0), "cannot pad a partition of 1 to size 2.0"),
    (lambda: P(1, 1).multiplicity(True), "part size must be a positive integer"),
    (lambda: P(1, 1).multiplicity(1.0), "part size must be a positive integer"),
    (lambda: truncate(SemigroupAlgebraElement.unit(3), 2.0),
     "truncation level must be a nonnegative integer, got 2.0"),
    (lambda: truncate(SemigroupAlgebraElement.unit(3), True),
     "truncation level must be a nonnegative integer, got True"),
    (lambda: truncate(SemigroupAlgebraElement.unit(3), -1),
     "truncation level must be a nonnegative integer, got -1"),
], ids=["pad-True", "pad-2.0", "multiplicity-True", "multiplicity-1.0",
        "truncate-2.0", "truncate-True", "truncate--1"])
def test_sizes_and_levels_refuse_bools_and_floats(call, message):
    # True equals 1: EMPTY.pad(True) read as (1,) and P(1, 1).multiplicity(True) as 2
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_enumeration_against_brute_force():
    for r in range(9):
        got = {p.parts for p in enumerate_partitions(r)}
        assert got == partitions_brute(r)
        assert partition_count(r) == len(got)


def test_strip_pad_roundtrip():
    for rho in partitions_up_to(6):
        for n in range(rho.size(), 9):
            assert rho.pad(n).strip_ones() == rho.strip_ones()


def test_multiplicity_sums():
    for rho in partitions_up_to(7):
        ks = set(rho.parts)
        assert sum(k * rho.multiplicity(k) for k in ks) == rho.size()
        assert sum(rho.multiplicity(k) for k in ks) == rho.length()


def test_centralizer_chain():
    # z_rho / m_1! = z_{rho stripped}  and  z_{rho padded to n} relates by the
    # ratio of factorials of the unit-part counts
    for rho in partitions_up_to(8):
        z = rho.centralizer_size()
        m1 = rho.multiplicity(1)
        assert z % factorial(m1) == 0
        assert z // factorial(m1) == rho.strip_ones().centralizer_size()
        for n in range(rho.size(), 11):
            r = rho.size()
            assert (rho.pad(n).centralizer_size() * factorial(m1)
                    == z * factorial(n - r + m1))


def test_string_roundtrip():
    for rho in partitions_up_to(6):
        assert Partition.from_string(str(rho)) == rho
    assert str(EMPTY) == ""
    assert Partition.from_string("") == EMPTY
    with pytest.raises(ValueError):
        Partition.from_string("3,x")
    with pytest.raises(ValueError):
        Partition.from_string("1,3")


def test_sort_key_order():
    ordered = sorted(partitions_up_to(4), key=Partition.sort_key)
    sizes = [p.size() for p in ordered]
    assert sizes == sorted(sizes)
    group4 = [p.parts for p in ordered if p.size() == 4]
    assert group4 == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(3, 5) == 0
    assert falling_factorial(7, 3) == 7 * 6 * 5
    # the math.perm that the package reads (n)_k from
    assert all(falling_factorial(n, k) == perm(n, k) for n in range(13) for k in range(15))
