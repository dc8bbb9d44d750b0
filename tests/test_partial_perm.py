from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from classconv.partial_perm import (PartialPermutation, canonical_rep,
                                    enumerate_class, enumerate_semigroup,
                                    permutations_of_type, product,
                                    semigroup_size)
from classconv.partitions import EMPTY, Partition, partitions_up_to

P = lambda *parts: Partition(parts)


@st.composite
def partial_perms(draw, max_point=8):
    points = draw(st.sets(st.integers(min_value=1, max_value=max_point), max_size=max_point))
    pts = sorted(points)
    images = draw(st.permutations(pts))
    return PartialPermutation(dict(zip(pts, images)))


def test_validation():
    with pytest.raises(ValueError):
        PartialPermutation({1: 2})
    with pytest.raises(ValueError):
        PartialPermutation({0: 0})
    with pytest.raises(ValueError):
        PartialPermutation.from_cycles([(1, 2), (2, 3)])


def test_bool_points_rejected():
    # a bool key, and a bool image, which equals the point 1 of the support
    for mapping in ({True: True}, {1: True}, {1: 2, 2: True}):
        with pytest.raises(ValueError, match="got True"):
            PartialPermutation(mapping)


def test_counterexample_product():
    # (1,2,3,4)(1,5,4,6,3) = (1,5)(2,3)(4,6), the right factor acting first
    a = PartialPermutation.from_cycles([(1, 2, 3, 4)])
    b = PartialPermutation.from_cycles([(1, 5, 4, 6, 3)])
    ab = product(a, b)
    assert ab.support == frozenset(range(1, 7))
    assert ab == PartialPermutation.from_cycles([(1, 5), (2, 3), (4, 6)])
    assert ab.cycle_type() == P(2, 2, 2)


def test_unit():
    e = PartialPermutation()
    b = PartialPermutation.from_cycles([(1, 5, 4, 6, 3)])
    assert product(e, b) == b
    assert product(b, e) == b


def test_involution_squares_to_identity_on_support():
    t = PartialPermutation.from_cycles([(1, 2)])
    assert product(t, t) == PartialPermutation.identity({1, 2})


def test_cycle_type():
    assert PartialPermutation.from_cycles([(1, 2, 3)]).cycle_type() == P(3)
    assert PartialPermutation.identity({1, 2, 3}).cycle_type() == P(1, 1, 1)
    assert PartialPermutation().cycle_type() == EMPTY


def test_canonical_rep():
    w = canonical_rep(P(3, 2))
    assert w.support == frozenset(range(1, 6))
    assert w.cycles() == ((1, 2, 3), (4, 5))
    assert canonical_rep(EMPTY) == PartialPermutation()
    assert canonical_rep(P(1, 1)) == PartialPermutation.identity({1, 2})


def test_enumerate_class_examples():
    assert len(list(enumerate_class(P(2), 3))) == 3
    assert len(list(enumerate_class(P(1), 2))) == 2
    assert list(enumerate_class(P(3), 2)) == []


def test_enumerate_class_counts():
    # |A_{rho;n}| = C(n-r+m1, m1) * n!/z_{rho padded}; cross-check by
    # filtering the full semigroup
    for n in range(7):
        by_type = {}
        for pp in enumerate_semigroup(n):
            key = (len(pp.support), pp.cycle_type())
            by_type[key] = by_type.get(key, 0) + 1
        for rho in partitions_up_to(n):
            r, m1 = rho.size(), rho.multiplicity(1)
            want = (comb(n - r + m1, m1)
                    * factorial(n) // rho.pad(n).centralizer_size())
            got = sum(1 for _ in enumerate_class(rho, n))
            assert got == want
            assert by_type.get((r, rho), 0) == want


def test_class_elements_distinct_and_typed():
    seen = set()
    for pp in enumerate_class(P(2, 1), 4):
        assert pp.cycle_type() == P(2, 1)
        assert len(pp.support) == 3
        assert pp not in seen
        seen.add(pp)


@given(partial_perms(max_point=6), st.permutations(list(range(1, 7))))
def test_conjugation_preserves_type(a, images):
    # relabeling by a permutation v of {1..6}, (d, w) -> (v d, v w v^-1),
    # keeps the type
    v = dict(zip(range(1, 7), images))
    b = PartialPermutation({v[x]: v[a(x)] for x in a.support})
    assert b.cycle_type() == a.cycle_type()


@given(partial_perms(), partial_perms(), partial_perms())
@settings(max_examples=200)
def test_associativity(a, b, c):
    assert product(product(a, b), c) == product(a, product(b, c))


@given(partial_perms(), partial_perms())
def test_degree_of_product(a, b):
    ab = product(a, b)
    assert len(ab.support) == len(a.support | b.support)
    assert len(ab.support) <= len(a.support) + len(b.support)


def test_semigroup_sizes():
    counts = [sum(1 for _ in enumerate_semigroup(n)) for n in range(5)]
    assert counts == [1, 2, 5, 16, 65]
    for n in range(5):
        assert semigroup_size(n) == counts[n]
    for n in range(1, 10):
        assert semigroup_size(n) == n * semigroup_size(n - 1) + 1


def test_permutations_of_type_counts():
    for rho in partitions_up_to(5):
        r = rho.size()
        perms = list(permutations_of_type(range(1, r + 1), rho))
        assert len(perms) == factorial(r) // rho.centralizer_size()
        assert len({tuple(sorted(m.items())) for m in perms}) == len(perms)


def test_str_form():
    pp = PartialPermutation.from_cycles([(1, 3), (5,)])
    assert str(pp) == "{1,3,5}:(1,3)(5)"
    assert str(PartialPermutation()) == "{}:"


def test_from_cycles_singletons_are_fixed_points():
    assert PartialPermutation.from_cycles([(5,), (1, 3)]) == PartialPermutation({1: 3, 3: 1, 5: 5})
    assert PartialPermutation.from_cycles([(), (2,)]) == PartialPermutation.identity({2})
    for cycles in ([(1, 2), (2,)], [(2,), (2,)]):
        with pytest.raises(ValueError, match="point 2 appears in more than one cycle"):
            PartialPermutation.from_cycles(cycles)


def test_permutations_of_type_refuses_wrong_point_count():
    for points in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="support size does not match"):
            permutations_of_type(points, P(3))


@given(partial_perms())
def test_cycle_order(pp):
    cycles = pp.cycles()
    assert PartialPermutation.from_cycles(cycles) == pp
    assert all(c[0] == min(c) for c in cycles)
    starts = [c[0] for c in cycles]
    assert all(a < b for a, b in zip(starts, starts[1:]))
