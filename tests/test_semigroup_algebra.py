from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from classconv.partial_perm import (PartialPermutation, enumerate_class,
                                    enumerate_semigroup, semigroup_size)
from classconv.partitions import Partition, partition_count, partitions_up_to
from classconv.semigroup_algebra import (GroupAlgebraElement,
                                         SemigroupAlgebraElement,
                                         center_dimension,
                                         center_dimension_by_pairs,
                                         class_element, epsilon, forget_support,
                                         phi_x, truncate)
from oracles import rank_over_Q

P = lambda *parts: Partition(parts)


def subsets(n):
    pts = range(1, n + 1)
    for k in range(n + 1):
        yield from (frozenset(c) for c in combinations(pts, k))


def basis_elements(n):
    return [SemigroupAlgebraElement.basis(pp, n) for pp in enumerate_semigroup(n)]


def group_unit(domain):
    """The unit of Q[S_domain]: the identity of the domain, coefficient 1."""
    return GroupAlgebraElement({PartialPermutation.identity(domain): 1}, domain)


def test_unit_and_single_terms():
    b = SemigroupAlgebraElement.basis(PartialPermutation.from_cycles([(1, 2)]), 3)
    e = SemigroupAlgebraElement.unit(3)
    assert e * b == b and b * e == b
    c = SemigroupAlgebraElement.basis(PartialPermutation.from_cycles([(2, 3)]), 3)
    prod = b * c
    assert len(prod.terms) == 1
    [(pp, coeff)] = prod.terms.items()
    assert coeff == 1 and pp == PartialPermutation.from_cycles([(1, 2, 3)])


@pytest.mark.parametrize("c", [0.1, 1.0, True])
def test_coefficients_must_be_int_or_fraction(c):
    pp = PartialPermutation.from_cycles([(1, 2)])
    with pytest.raises(ValueError, match="coefficients must be integers or Fractions"):
        SemigroupAlgebraElement({pp: c}, 2)
    with pytest.raises(ValueError, match="coefficients must be integers or Fractions"):
        GroupAlgebraElement({pp: c}, [1, 2])
    with pytest.raises(ValueError, match="coefficients must be integers or Fractions"):
        c * SemigroupAlgebraElement.basis(pp, 2)
    half = Fraction(1, 2) * SemigroupAlgebraElement.basis(pp, 2)
    assert half.terms == {pp: Fraction(1, 2)}


def test_subtraction_and_hash():
    swap = SemigroupAlgebraElement.basis(PartialPermutation.from_cycles([(1, 2)]), 2)
    e = SemigroupAlgebraElement.unit(2)
    assert (e + swap) + (-1) * swap == e
    assert (swap + (-1) * e).terms == {PartialPermutation.from_cycles([(1, 2)]): 1,
                                       PartialPermutation(): -1}
    assert (e + (-1) * e).is_zero()
    # equal elements built in different term orders hash alike
    assert hash(e + swap) == hash(swap + e) and len({e + swap, swap + e, e}) == 2


def test_supports_and_subsets_inside_the_ambient():
    with pytest.raises(ValueError, match="exceeds ambient bound 3"):
        SemigroupAlgebraElement.basis(PartialPermutation.from_cycles([(1, 4)]), 3)
    with pytest.raises(ValueError, match="total permutations of the domain"):
        GroupAlgebraElement({PartialPermutation.identity({1}): 1}, {1, 2})
    with pytest.raises(ValueError, match="x must be a subset of the ambient set"):
        phi_x(SemigroupAlgebraElement.unit(2), {1, 3})
    with pytest.raises(ValueError, match="d must be a subset of the ambient set"):
        epsilon({3}, 2)


@pytest.mark.parametrize("domain", [[True], [0, -1], [1.0]])
def test_group_algebra_domain_points_follow_the_support_rule(domain):
    # True equals the point 1 and 0, -1 are no points of any support
    for build in (lambda d: GroupAlgebraElement({}, d), group_unit):
        with pytest.raises(ValueError, match="support points must be positive integers"):
            build(domain)


def test_ambient_mismatch():
    with pytest.raises(ValueError):
        SemigroupAlgebraElement.unit(2) * SemigroupAlgebraElement.unit(3)
    with pytest.raises(ValueError):
        SemigroupAlgebraElement.unit(2) + SemigroupAlgebraElement.unit(3)


def test_group_algebra_arithmetic():
    dom = frozenset({1, 2})
    one, swap = PartialPermutation.identity(dom), PartialPermutation.from_cycles([(1, 2)])
    total = group_unit(dom) + 2 * GroupAlgebraElement({swap: 1}, dom)
    assert total.terms == {one: 1, swap: 2}
    assert total * total == GroupAlgebraElement({one: 5, swap: 4}, dom)
    zero = GroupAlgebraElement({}, dom)
    assert zero.is_zero() and zero.domain == dom
    assert total + zero == total and zero * total == zero
    assert (total + (-1) * total).is_zero()
    other = group_unit({1, 2, 3})
    # match the message: the constructor would also refuse the foreign keys
    with pytest.raises(ValueError, match="mismatch"):
        total + other
    with pytest.raises(ValueError, match="mismatch"):
        total * other


def test_class_square_truncated_algebra():
    # the class of transpositions in P_2 squares to the identity class
    a2 = class_element(P(2), 2)
    assert a2 * a2 == class_element(P(1, 1), 2)


def test_phi_x():
    n = 4
    b = SemigroupAlgebraElement.basis(PartialPermutation.from_cycles([(1, 2)]), n)
    assert phi_x(b, {3, 4}).is_zero()
    full = phi_x(b, range(1, n + 1))
    assert full == forget_support(b)
    for d in subsets(3):
        e = epsilon(d, 3)
        assert phi_x(e, d) == group_unit(d)
        for x in subsets(3):
            if x != d:
                assert phi_x(e, x).is_zero()


def test_phi_x_multiplicative_exhaustive():
    for n in range(4):
        basis = basis_elements(n)
        xs = list(subsets(n))
        for a in basis:
            for b in basis:
                ab = a * b
                for x in xs:
                    assert phi_x(ab, x) == phi_x(a, x) * phi_x(b, x)


def test_phi_x_multiplicative_sampled_n4():
    n = 4
    basis = basis_elements(n)
    xs = list(subsets(n))
    sample = basis[::7]
    mixed = [basis[3] + 2 * basis[17] + 5 * basis[40],
             class_element(P(2), n), epsilon({1, 3}, n)]
    for a in sample + mixed:
        for b in sample + mixed:
            ab = a * b
            for x in xs:
                assert phi_x(ab, x) == phi_x(a, x) * phi_x(b, x)


def test_epsilon_expansion():
    e = epsilon((), 1)
    assert e.terms == {PartialPermutation(): Fraction(1),
                       PartialPermutation.identity({1}): Fraction(-1)}
    full = epsilon(range(1, 4), 3)
    assert full.terms == {PartialPermutation.identity({1, 2, 3}): Fraction(1)}


def test_epsilon_idempotent_and_central():
    for n in range(5):
        basis = basis_elements(n)
        for d in subsets(n):
            e = epsilon(d, n)
            assert e * e == e
            for b in basis:
                assert e * b == b * e


def test_truncate():
    a = class_element(P(2, 2), 4)
    assert truncate(a, 4) == a
    assert truncate(a, 3).is_zero()
    with pytest.raises(ValueError):
        truncate(a, 5)


def test_truncate_homomorphism():
    # theta_m(ab) = theta_m(a) theta_m(b) over a spread of elements
    n = 5
    samples = [class_element(P(2), n), class_element(P(2, 1), n),
               epsilon({1, 2}, n), class_element(P(3, 2), n),
               class_element(P(1), n) + 3 * class_element(P(3), n)]
    for m in range(n + 1):
        for a in samples:
            for b in samples:
                assert truncate(a * b, m) == truncate(a, m) * truncate(b, m)


def test_forget_support_unit_and_class():
    n = 2
    assert forget_support(SemigroupAlgebraElement.unit(n)) == group_unit(range(1, n + 1))
    img = forget_support(class_element(P(1), 2))
    assert img == 2 * group_unit({1, 2})


def test_forget_support_class_formula():
    # psi(A_{rho;n}) spreads the binomial coefficient over the class of the
    # padded cycle type
    for n in range(5):
        for rho in partitions_up_to(n):
            img = forget_support(class_element(rho, n))
            r, m1 = rho.size(), rho.multiplicity(1)
            want = comb(n - r + m1, m1)
            padded = rho.pad(n)
            for w, coeff in img.terms.items():
                assert coeff == want
                assert w.cycle_type() == padded
            expected_class_size = sum(
                1 for pp in enumerate_semigroup(n)
                if len(pp.support) == n and pp.cycle_type() == padded)
            assert len(img.terms) == expected_class_size


def test_center_dimension():
    assert center_dimension(0) == 1
    assert center_dimension(2) == 5
    assert center_dimension(4) == sum(comb(4, k) * partition_count(k) for k in range(5))
    for n in range(7):
        assert center_dimension(n) == center_dimension_by_pairs(n)



@pytest.mark.parametrize("n", [-1, True, False, 2.5, Fraction(2)])
def test_ambient_n_must_be_nonnegative_int(n):
    # True equals 1 and -1 counts as an empty range, so each read a wrong P_n
    for build in (semigroup_size, center_dimension, center_dimension_by_pairs,
                  lambda n: list(enumerate_semigroup(n)),
                  lambda n: list(enumerate_class(P(1), n)),
                  lambda n: SemigroupAlgebraElement({}, n)):
        with pytest.raises(ValueError, match="n must be a nonnegative integer"):
            build(n)


def test_dimension_of_algebra_matches_semigroup_size():
    for n in range(5):
        basis = list(enumerate_semigroup(n))
        assert len(basis) == len(set(basis))
        from classconv.partial_perm import semigroup_size
        assert len(basis) == semigroup_size(n)


def _perm_index(n):
    perms = sorted(
        (pp for pp in enumerate_semigroup(n) if len(pp.support) == n),
        key=lambda pp: tuple(pp(i) for i in range(1, n + 1)))
    return {pp: i for i, pp in enumerate(perms)}


def test_psi_multiplicative_and_surjective():
    for n in range(1, 5):
        basis = basis_elements(n)
        index = _perm_index(n)
        rows = []
        for b in basis:
            img = forget_support(b)
            row = [Fraction(0)] * len(index)
            for w, c in img.terms.items():
                row[index[w]] += c
            rows.append(row)
        assert rank_over_Q(rows) == len(index)
        sample = basis[:: max(1, len(basis) // 6)]
        for a in sample:
            for b in sample:
                assert forget_support(a * b) == forget_support(a) * forget_support(b)


def test_phi_vanishing_equivalence():
    # phi_y(b) = 0 for all y in x  <=>  coefficients vanish on supports in x,
    # over a structured family including the adversarial projections
    for n in range(4):
        xs = list(subsets(n))
        family = [SemigroupAlgebraElement.unit(n)]
        family += basis_elements(n)
        eps = [epsilon(d, n) for d in xs]
        family += eps
        family += [e * b for e, b in zip(eps, basis_elements(n)[::-1])]
        acc = SemigroupAlgebraElement({}, n)
        for i, b in enumerate(basis_elements(n)):
            acc = acc + (2 * i + 1) * b
        family.append(acc)
        for b in family:
            for x in xs:
                via_phi = all(phi_x(b, y).is_zero() for y in xs if y <= x)
                via_coeff = all(not (pp.support <= x) for pp in b.terms)
                assert via_phi == via_coeff


def test_invariant_algebra_strictly_inside_center_for_n2():
    # B_2 is commutative (its simple blocks are at most one-dimensional
    # group algebras), so the center has dimension 5 while the invariant
    # subalgebra only has the four class elements
    basis = basis_elements(2)
    for a in basis:
        for b in basis:
            assert a * b == b * a
    assert center_dimension(2) == 5
    classes = [class_element(rho, 2) for rho in partitions_up_to(2)]
    index = {pp: i for i, pp in enumerate(enumerate_semigroup(2))}
    rows = []
    for c in classes:
        row = [Fraction(0)] * len(index)
        for pp, coeff in c.terms.items():
            row[index[pp]] = coeff
        rows.append(row)
    assert rank_over_Q(rows) == 4

