"""Symmetric-group characters and shifted-symmetric evaluations.

Characters come from the Murnaghan-Nakayama recursion over border-strip
removals (computed on beta numbers); dimensions from the hook length
formula; skew dimensions from corner-removal recursion.  On top of these
sit the shifted power sums p#, the shifted Schur values s* obtained from
p# by character orthogonality, the evaluation isomorphism F, and the
class vectors x_mu whose F-images are the s*.

Everything is exact: characters are integers, evaluations are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Iterator

from .class_vector import ClassVector
from .partitions import Partition, enumerate_partitions, falling_factorial


def _border_strip_removals(lam: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Ways to remove a border strip of size k, as (new shape, height)."""
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        nbeta = sorted((x for x in beta if x != b), reverse=True)
        nbeta.append(nb)
        nbeta.sort(reverse=True)
        parts = tuple(nbeta[j] - (ell - 1 - j) for j in range(ell))
        yield tuple(x for x in parts if x), height


@cache
def _char(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1
    k = rho[0]
    total = 0
    for mu, height in _border_strip_removals(lam, k):
        total += (-1) ** height * _char(mu, rho[1:])
    return total


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam on the class of cycle type rho."""
    if lam.size() != rho.size():
        raise ValueError(f"|{lam}| != |{rho}|")
    return _char(lam.parts, rho.parts)


@cache
def _dim(lam: tuple[int, ...]) -> int:
    n = sum(lam)
    conj = [0] * (lam[0] if lam else 0)
    for part in lam:
        for j in range(part):
            conj[j] += 1
    d = factorial(n)
    for i, part in enumerate(lam):
        for j in range(part):
            d //= part - j + conj[j] - i - 1
    return d


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook lengths)."""
    return _dim(lam.parts)


@cache
def _skew_dim(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if len(mu) > len(lam) or any(mu[i] > lam[i] for i in range(len(mu))):
        return 0
    if sum(lam) == sum(mu):
        return 1
    total = 0
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue
        smaller = lam[:i] + (lam[i] - 1,) + lam[i + 1:]
        smaller = tuple(x for x in smaller if x)
        total += _skew_dim(smaller, mu)
    return total


def skew_dimension(lam: Partition, mu: Partition) -> int:
    """Number of standard tableaux of the skew shape lam/mu; 0 if mu not in lam."""
    return _skew_dim(lam.parts, mu.parts)


class CharacterTable:
    """The full character table of S_n in the canonical partition order."""

    __slots__ = ("n", "labels", "matrix")

    def __init__(self, n: int) -> None:
        self.n = n
        self.labels = enumerate_partitions(n)
        self.matrix = [[character(lam, rho) for rho in self.labels]
                       for lam in self.labels]

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.matrix[self.labels.index(lam)][self.labels.index(rho)]

    def dimensions(self) -> list[int]:
        one_col = self.labels.index(Partition((1,) * self.n)) if self.n else 0
        return [row[one_col] for row in self.matrix]


def p_sharp(rho: Partition, lam: Partition) -> Fraction:
    """Shifted power sum evaluated at lam: (n falling r) chi^lam_{rho padded} / dim lam."""
    r = rho.size()
    n = lam.size()
    if r > n:
        return Fraction(0)
    chi = character(lam, rho.pad(n))
    return Fraction(falling_factorial(n, r) * chi, dimension(lam))


def s_star(mu: Partition, lam: Partition) -> Fraction:
    """Shifted Schur value, inverted from p# by character orthogonality."""
    total = Fraction(0)
    for rho in enumerate_partitions(mu.size()):
        chi = character(mu, rho)
        if chi:
            total += Fraction(chi, rho.centralizer_size()) * p_sharp(rho, lam)
    return total


def F_eval(v: ClassVector, lam: Partition) -> Fraction:
    """The evaluation isomorphism: A_rho maps to p#_rho / z_rho."""
    total = Fraction(0)
    for rho, c in v.terms.items():
        total += c * p_sharp(rho, lam) / rho.centralizer_size()
    return total


def x_mu(mu: Partition) -> ClassVector:
    """The class vector whose F-image is s*_mu.

    Grouping the character-weighted sum over partial permutations of
    degree |mu| by cycle type gives coefficient chi^mu_rho on A_rho.
    """
    terms = {}
    for rho in enumerate_partitions(mu.size()):
        chi = character(mu, rho)
        if chi:
            terms[rho] = Fraction(chi)
    return ClassVector(terms)
