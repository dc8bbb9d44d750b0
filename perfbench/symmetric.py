"""Symmetric-group arithmetic of the benchmark's own, independent of classconv.

Partitions, centralizer orders, characters (Murnaghan-Nakayama by rim
hooks), dimensions (hook lengths), skew dimensions, shifted power sums
and shifted Schur values; and the structure constants g of the class
algebra, by inverting the evaluation isomorphism F, which sends A_rho to
p#_rho / z_rho, level by level with column orthogonality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial


@cache
def partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """Partitions of n, reverse-lexicographically."""
    def gen(rest: int, top: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, top), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return tuple(gen(n, n))


def partitions_up_to(n: int) -> list[tuple[int, ...]]:
    return [p for k in range(n + 1) for p in partitions(k)]


def centralizer(parts: tuple[int, ...]) -> int:
    z = 1
    for k in set(parts):
        m = parts.count(k)
        z *= k ** m * factorial(m)
    return z



def _conjugate(lam: tuple[int, ...]) -> list[int]:
    return [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]


@cache
def chi(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lam at cycle type rho: strip a rim hook of size rho[0] per step."""
    if not rho:
        return 1
    k, rest = rho[0], rho[1:]
    conj = _conjugate(lam)
    total = 0
    for i, row in enumerate(lam):
        for j in range(row):
            if row - j + conj[j] - i - 1 != k:
                continue
            leg = conj[j] - i - 1
            mu = list(lam)
            for q in range(i, i + leg):
                mu[q] = lam[q + 1] - 1
            mu[i + leg] = j
            total += (-1) ** leg * chi(tuple(x for x in mu if x), rest)
    return total


@cache
def dim(lam: tuple[int, ...]) -> int:
    conj = _conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(sum(lam)) // hooks


@cache
def skew_dim(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Standard tableaux of lam/mu, by removing one corner of lam at a time."""
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        return 0
    if sum(lam) == sum(mu):
        return 1
    total = 0
    for i, row in enumerate(lam):
        if i + 1 == len(lam) or lam[i + 1] < row:
            smaller = tuple(x for x in lam[:i] + (row - 1,) + lam[i + 1:] if x)
            total += skew_dim(smaller, mu)
    return total


def falling(n: int, k: int) -> int:
    return factorial(n) // factorial(n - k)


@cache
def p_sharp(rho: tuple[int, ...], lam: tuple[int, ...]) -> Fraction:
    n, r = sum(lam), sum(rho)
    if r > n:
        return Fraction(0)
    return Fraction(falling(n, r) * chi(lam, rho + (1,) * (n - r)), dim(lam))


def s_star(mu: tuple[int, ...], lam: tuple[int, ...]) -> Fraction:
    """Okounkov-Olshanski: s*_mu(lam) = (n)_k dim(lam/mu) / dim(lam)."""
    n, k = sum(lam), sum(mu)
    if k > n:
        return Fraction(0)
    return Fraction(falling(n, k) * skew_dim(lam, mu), dim(lam))


@cache
def F_basis(rho: tuple[int, ...], lam: tuple[int, ...]) -> Fraction:
    return p_sharp(rho, lam) / centralizer(rho)



@cache
def structure_constants(sigma: tuple[int, ...], tau: tuple[int, ...]) -> dict:
    """All nonzero g^rho_{sigma,tau}: at each level m, with R(lam) the part
    of F(A_sigma)(lam) F(A_tau)(lam) not explained by lower levels,
    g^mu = (1/m!) sum over lam of m of chi^lam_mu dim(lam) R(lam)."""
    out: dict[tuple[int, ...], int] = {}
    for m in range(max(sum(sigma), sum(tau)), sum(sigma) + sum(tau) + 1):
        rest = {lam: F_basis(sigma, lam) * F_basis(tau, lam)
                - sum((g * F_basis(rho, lam) for rho, g in out.items()), Fraction(0))
                for lam in partitions(m)}
        for mu in partitions(m):
            g = sum((chi(lam, mu) * dim(lam) * r for lam, r in rest.items()),
                    Fraction(0)) / factorial(m)
            if g:
                out[mu] = int(g)
    return out
