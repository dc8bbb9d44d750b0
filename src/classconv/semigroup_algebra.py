"""The semigroup algebra B_n = Q[P_n] with exact rational coefficients.

Elements are sparse maps from partial permutations to Fractions inside a
fixed ambient bound n.  The module also provides the evaluation
homomorphisms phi_x into group algebras of subsets, the central
projections epsilon_d, the truncation homomorphisms theta_m, the
support-forgetting map psi onto Q[S_n], and the center-dimension count.
Elements of B_n and of the group algebras Q[S_x] share one arithmetic,
since the group product is the restriction of the semigroup product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Mapping

from .class_vector import Coeff, _coeff
from .partial_perm import PartialPermutation, enumerate_class
from .partitions import Partition, _check_int, partition_count


def _clean(terms: Mapping[PartialPermutation, Coeff]) -> dict[PartialPermutation, Fraction]:
    out = {}
    for pp, c in terms.items():
        c = _coeff(c)
        if c:
            out[pp] = c
    return out


class _Element:
    """The arithmetic of a rational combination of partial permutations
    over one ambient, which each subclass names through _ambient and takes
    as its constructor's second argument."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if self._ambient != other._ambient:
            raise ValueError(f"ambient mismatch: {self._ambient} vs {other._ambient}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for pp, c in other.terms.items():
            out[pp] = out.get(pp, Fraction(0)) + c
        return type(self)(out, self._ambient)

    def __rmul__(self, scalar: Coeff):
        s = _coeff(scalar)
        return type(self)({pp: s * c for pp, c in self.terms.items()}, self._ambient)

    def __mul__(self, other):
        """Bilinear extension of the semigroup product."""
        self._check(other)
        out: dict[PartialPermutation, Fraction] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = p1 * p2
                out[p] = out.get(p, Fraction(0)) + c1 * c2
        return type(self)(out, self._ambient)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, type(self))
                and self._ambient == other._ambient and self.terms == other.terms)


class SemigroupAlgebraElement(_Element):
    """A finite rational combination of partial permutations in P_n."""

    __slots__ = ("terms", "n")

    def __init__(self, terms: Mapping[PartialPermutation, Coeff], n: int) -> None:
        _check_int(n, "n", 0)
        self.terms = _clean(terms)
        self.n = n
        full = frozenset(range(1, n + 1))
        for pp in self.terms:
            if not pp.support <= full:
                raise ValueError(f"support of {pp} exceeds ambient bound {n}")

    @property
    def _ambient(self) -> int:
        return self.n

    @classmethod
    def unit(cls, n: int) -> "SemigroupAlgebraElement":
        return cls({PartialPermutation(): Fraction(1)}, n)

    @classmethod
    def basis(cls, pp: PartialPermutation, n: int) -> "SemigroupAlgebraElement":
        return cls({pp: Fraction(1)}, n)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"SemigroupAlgebraElement({len(self.terms)} terms, n={self.n})"


class GroupAlgebraElement(_Element):
    """A rational combination of total permutations of a fixed ground set.

    Keys are PartialPermutation values whose support equals the domain, so
    the group product is the restriction of the semigroup product.
    """

    __slots__ = ("terms", "domain")

    def __init__(self, terms: Mapping[PartialPermutation, Coeff],
                 domain: Iterable[int]) -> None:
        self.domain = PartialPermutation.identity(domain).support
        self.terms = _clean(terms)
        for pp in self.terms:
            if pp.support != self.domain:
                raise ValueError("keys must be total permutations of the domain")

    @property
    def _ambient(self) -> frozenset[int]:
        return self.domain

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({len(self.terms)} terms, |domain|={len(self.domain)})"


def phi_x(b: SemigroupAlgebraElement, x: Iterable[int]) -> GroupAlgebraElement:
    """Evaluation homomorphism B_n -> Q[S_x]: keep terms with support in x."""
    dom = frozenset(x)
    if not dom <= frozenset(range(1, b.n + 1)):
        raise ValueError("x must be a subset of the ambient set")
    out: dict[PartialPermutation, Fraction] = {}
    for pp, c in b.terms.items():
        if pp.support <= dom:
            ext = PartialPermutation({p: pp(p) for p in dom})
            out[ext] = out.get(ext, Fraction(0)) + c
    return GroupAlgebraElement(out, dom)


def forget_support(b: SemigroupAlgebraElement) -> GroupAlgebraElement:
    """The support-forgetting map psi: B_n -> Q[S_n].

    (d, w) goes to the identical extension of w to the full ambient set."""
    return phi_x(b, range(1, b.n + 1))


def truncate(b: SemigroupAlgebraElement, m: int) -> SemigroupAlgebraElement:
    """The truncation theta_m: B_n -> B_m, keeping the terms supported
    inside {1..m}."""
    _check_int(m, "truncation level", 0)
    if m > b.n:
        raise ValueError("truncation level exceeds ambient bound")
    cut = frozenset(range(1, m + 1))
    return SemigroupAlgebraElement(
        {pp: c for pp, c in b.terms.items() if pp.support <= cut}, m)


def epsilon(d: Iterable[int], n: int) -> SemigroupAlgebraElement:
    """The central projection: alternating sum of identities over supersets of d."""
    base = frozenset(d)
    if not base <= frozenset(range(1, n + 1)):
        raise ValueError("d must be a subset of the ambient set")
    rest = sorted(frozenset(range(1, n + 1)) - base)
    terms: dict[PartialPermutation, Fraction] = {}
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            y = base | set(extra)
            terms[PartialPermutation.identity(y)] = Fraction(-1) ** k
    return SemigroupAlgebraElement(terms, n)


def class_element(rho: Partition, n: int) -> SemigroupAlgebraElement:
    """The class sum A_{rho;n} in B_n: every partial permutation of type
    rho in P_n, each with coefficient 1."""
    return SemigroupAlgebraElement(
        {pp: Fraction(1) for pp in enumerate_class(rho, n)}, n)


def center_dimension(n: int) -> int:
    """dim Z(B_n) = sum_k C(n,k) p(k)."""
    _check_int(n, "n", 0)
    return sum(comb(n, k) * partition_count(k) for k in range(n + 1))


def center_dimension_by_pairs(n: int) -> int:
    """Independent count of pairs (d, lambda |- |d|) with d inside {1..n}."""
    _check_int(n, "n", 0)
    count = 0
    for k in range(n + 1):
        for _d in combinations(range(1, n + 1), k):
            count += partition_count(k)
    return count
