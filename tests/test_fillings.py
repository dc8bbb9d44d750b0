from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from classconv import fillings as fillings_module
from classconv.class_algebra import f_constant
from classconv.fillings import Filling, canonical_filling, convolve, enumerate_F
from classconv.partial_perm import PartialPermutation, _images, canonical_rep, product
from classconv.partitions import EMPTY, Partition, enumerate_partitions, partitions_up_to
from oracles import _arrangements, enumerate_F_naive, fillings_of_shape

P = lambda *parts: Partition(parts)


def shape(f):
    """The row lengths of a filling, as a partition."""
    return Partition(len(row) for row in f.rows)


@st.composite
def fillings(draw, max_point=7):
    points = draw(st.sets(st.integers(min_value=1, max_value=max_point),
                          max_size=max_point))
    pts = sorted(points)
    arrangement = draw(st.permutations(pts))
    if not arrangement:
        return Filling(())
    shape = draw(st.sampled_from(enumerate_partitions(len(arrangement))))
    rows = []
    i = 0
    for ln in shape.parts:
        rows.append(arrangement[i:i + ln])
        i += ln
    return Filling(rows)


def test_validation():
    with pytest.raises(ValueError):
        Filling([[1, 2], [3, 4, 5]])
    with pytest.raises(ValueError):
        Filling([[1, 1]])
    with pytest.raises(ValueError):
        Filling([[]])
    with pytest.raises(ValueError):
        Filling([[0]])
    for rows in ([[1.9, 2.2]], [[1, 2.0]], [["3"]]):
        with pytest.raises(ValueError):
            Filling(rows)


def test_filling_rejects_bool_entries():
    for rows in ([[True, 2]], [[3], [True]]):
        with pytest.raises(ValueError, match="got True"):
            Filling(rows)


def test_to_partial_perm_example():
    f = Filling([[4, 3, 1], [9, 2, 7], [6, 5]])
    assert shape(f) == P(3, 3, 2)
    assert f.to_partial_perm() == PartialPermutation.from_cycles(
        [(1, 4, 3), (2, 7, 9), (5, 6)])
    assert Filling([[7]]).to_partial_perm() == PartialPermutation.identity({7})
    assert Filling(()).to_partial_perm() == PartialPermutation()


def test_worked_convolution_example():
    s = Filling.from_string("3,4,5,6,9;2,1,7")
    t = Filling.from_string("4,3,2;1,9,6;8")
    assert convolve(s, t) == Filling.from_string("5,6,7,2;3,1;4;9;8")


def test_convolve_with_empty_left_factor():
    t = Filling.from_string("4,3,2;1,9,6;8")
    got = convolve(Filling(()), t)
    assert got.to_partial_perm() == t.to_partial_perm()
    # reading order regenerates the rows themselves
    assert got == t


def test_canonical_filling():
    assert canonical_filling(P(3, 2)) == Filling([[1, 2, 3], [4, 5]])
    assert canonical_filling(EMPTY) == Filling(())
    for rho in partitions_up_to(5):
        assert canonical_filling(rho).to_partial_perm() == canonical_rep(rho)


@given(fillings(), fillings())
@settings(max_examples=150)
def test_convolution_is_semigroup_homomorphism(s, t):
    assert convolve(s, t).to_partial_perm() == product(
        s.to_partial_perm(), t.to_partial_perm())


@given(fillings(max_point=6), fillings(max_point=6), fillings(max_point=6))
@settings(max_examples=100)
def test_convolution_associative_after_projection(a, b, c):
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert left.to_partial_perm() == right.to_partial_perm()
    assert shape(left) == shape(right)


def test_convolution_not_associative_on_the_nose():
    # the written arrangements can differ even though the underlying
    # partial permutations always agree: the row through 3 starts at 3 on
    # one side and at 1 on the other
    a = Filling([[1, 3, 2]])
    b = Filling([[1, 2]])
    left = convolve(convolve(a, b), b)
    right = convolve(a, convolve(b, b))
    assert left == Filling([[3, 2, 1]])
    assert right == Filling([[1, 3, 2]])
    assert left != right
    assert left.to_partial_perm() == right.to_partial_perm()


def test_fiber_sizes_and_filling_counts():
    # all fillings of shape rho with a fixed support: |rho|! of them, and the
    # map to partial permutations has fibers of size exactly z_rho
    for rho in partitions_up_to(5):
        r = rho.size()
        support = tuple(range(1, r + 1))
        buckets: dict[PartialPermutation, list[Filling]] = {}
        count = 0
        for f in fillings_of_shape(rho, support):
            if f.support != frozenset(support):
                continue
            count += 1
            buckets.setdefault(f.to_partial_perm(), []).append(f)
        assert count == factorial(r)
        z = rho.centralizer_size()
        assert len(buckets) == factorial(r) // z
        for pp, fibers in buckets.items():
            assert len(fibers) == z
            assert sorted(map(str, fibers)) == sorted(
                map(str, fillings_module._fillings_of_cycles(list(pp.cycles()))))


def test_enumerate_F_examples():
    assert len(enumerate_F(P(2), P(2), P(2, 2))) == 1
    assert len(enumerate_F(P(2), P(2), P(3))) == 4
    for tau in partitions_up_to(3):
        for rho in partitions_up_to(3):
            want = 1 if tau == rho else 0
            assert len(enumerate_F(EMPTY, tau, rho)) == want


def _triples(bound, total=None):
    """Every (sigma, tau, rho) with |sigma|, |tau| <= bound, |sigma| + |tau|
    <= total if given, and max(|sigma|, |tau|) <= |rho| <= |sigma| + |tau|."""
    for sigma in partitions_up_to(bound):
        for tau in partitions_up_to(bound):
            if total is not None and sigma.size() + tau.size() > total:
                continue
            for r in range(max(sigma.size(), tau.size()),
                           sigma.size() + tau.size() + 1):
                for rho in enumerate_partitions(r):
                    yield sigma, tau, rho


def test_enumerate_F_matches_f_small():
    for sigma, tau, rho in _triples(3):
        assert (len(enumerate_F(sigma, tau, rho))
                == f_constant(sigma, tau, rho)), (sigma, tau, rho)


def _pair_strings(pairs):
    return sorted((str(s), str(t)) for s, t in pairs)


def test_enumerate_F_fast_matches_naive():
    # every triple with |sigma| + |tau| <= 5, a factor of size 5 included
    triples = list(_triples(5, total=5))
    assert len(triples) == 588
    for sigma, tau, rho in triples:
        assert _pair_strings(enumerate_F(sigma, tau, rho)) == _pair_strings(
            enumerate_F_naive(sigma, tau, rho)), (sigma, tau, rho)
    spot = [(P(3), P(2), P(4)), (P(2, 1), P(2), P(2, 2, 1)), (P(3), P(3), P(2, 2))]
    for sigma, tau, rho in spot:
        assert _pair_strings(enumerate_F(sigma, tau, rho)) == _pair_strings(
            enumerate_F_naive(sigma, tau, rho)), (sigma, tau, rho)


def test_enumerate_F_rejects_S_by_reading_order(monkeypatch):
    # enumerate_F convolves nothing: its pairs meet the target by
    # construction (the fillings module docstring), so every pair is
    # convolved here instead.  The reading rule does the rejecting: each
    # (sigma |- 4)*(1^4) -> rho with |rho| = 7 row, such as (2,2)*(1^4) ->
    # (2,2,1,1,1), keeps 16 of its 96 T candidates
    def refuse(s, t):
        raise AssertionError("enumerate_F convolved a pair")

    rule = fillings_module._reads_in_order
    tried = kept = 0

    def counting_rule(*args):
        nonlocal tried, kept
        ok = rule(*args)
        tried += 1
        kept += ok
        return ok

    monkeypatch.setattr(fillings_module, "convolve", refuse)
    monkeypatch.setattr(fillings_module, "_reads_in_order", counting_rule)

    def checked_pairs(sigma, tau, rho):
        pairs = enumerate_F(sigma, tau, rho)
        target = canonical_filling(rho)
        for s, t in pairs:
            assert (shape(s), shape(t)) == (sigma, tau)
            assert convolve(s, t) == target, (s, t, rho)
        assert len(set(pairs)) == len(pairs) == f_constant(sigma, tau, rho)
        return len(pairs)

    assert sum(checked_pairs(*triple) for triple in _triples(3)) == 541
    ones = P(1, 1, 1, 1)
    for sigma in enumerate_partitions(4):
        for rho in enumerate_partitions(7):
            tried = kept = 0
            pairs = checked_pairs(sigma, ones, rho)
            if rho.strip_ones() == sigma.strip_ones():
                assert (pairs, kept, tried) == (16, 16, 96), (sigma, rho)
            else:
                assert (pairs, tried) == (0, 0), (sigma, rho)


def test_enumerate_F_walks_fewer_S_than_pairs(monkeypatch):
    # the walk drops each S whose agreements with rho leave the forced map
    # moving the wrong number of points; up to 3 it yields 348 S (3,358
    # passed the reading-order rule alone), fewer than the pairs they make
    walk = fillings_module._s_arrangements
    walked = 0

    def counting_walk(*args):
        nonlocal walked
        for arrangement in walk(*args):
            walked += 1
            yield arrangement

    monkeypatch.setattr(fillings_module, "_s_arrangements", counting_walk)
    pairs = sum(len(enumerate_F(sigma, tau, rho)) for sigma, tau, rho in _triples(3))
    assert pairs == 541
    assert walked < pairs, (walked, pairs)


def test_s_walk_matches_filtered_arrangements():
    # the pruned walk yields exactly the in-order arrangements whose S
    # (the identity off S) agrees with rho on r - moved points, in order
    for rho in partitions_up_to(6):
        r = rho.size()
        target = canonical_filling(rho)
        rho_img = _images(target.rows)
        before = fillings_module._reading_rule(target)
        for sigma in partitions_up_to(min(4, r)):
            spans = fillings_module._row_spans(sigma)
            by_moved: dict[int, list[tuple[int, ...]]] = {}
            for a in _arrangements(sigma.size(), range(1, r + 1)):
                if fillings_module._reads_in_order(a, before, ()):
                    s_img = _images(tuple(a[i:j] for i, j in spans))
                    agree = sum(s_img.get(x, x) == rho_img[x] for x in range(1, r + 1))
                    by_moved.setdefault(r - agree, []).append(a)
            for moved in range(r + 1):
                assert list(fillings_module._s_arrangements(
                    sigma, rho_img, before, moved)) == by_moved.get(moved, []), (
                        sigma, rho, moved)


def test_enumerate_F_out_of_range_rho_enumerates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("S-fillings enumerated for a rho with no pairs")

    monkeypatch.setattr(fillings_module, "_s_arrangements", refuse)
    assert enumerate_F(P(4), P(4), P(30)) == []
    assert enumerate_F(P(3), P(1), P(2)) == []


def test_enumerate_F_bound_guard():
    # above the CLI's default bound 4 the library still counts
    assert len(enumerate_F(P(5), P(2), P(5, 2))) == f_constant(
        P(5), P(2), P(5, 2))


def test_string_roundtrip():
    f = Filling.from_string("3,4,5;2,1")
    assert str(f) == "3,4,5;2,1"
    assert Filling.from_string(str(f)) == f
    assert Filling.from_string("") == Filling(())
    with pytest.raises(ValueError):
        Filling.from_string("1,2;x")
