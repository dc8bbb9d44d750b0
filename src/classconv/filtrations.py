"""Degree functions on the class algebra and filtration verification.

A degree function theta is a filtration when theta(rho) never exceeds
theta(sigma) + theta(tau) on triples with nonzero structure constant.
The additive ones are determined by their values gamma_k on one-cycle
partitions; this module evaluates the standard examples, scans computed
structure constants for violations, checks the numbered gamma
inequalities, and reports the finite-K proxy for the limit ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .class_algebra import g_table
from .partitions import Partition, _check_int, _ints

FILTRATION_DEFAULT_BOUND = 5


class DegreeFunction:
    """An additive degree rule: theta(rho) = sum of gamma_k over the parts k."""

    __slots__ = ("_label", "_gamma")

    def __init__(self, label: str, gamma: Callable[[int], int]) -> None:
        self._label = label
        self._gamma = gamma

    @classmethod
    def deg1(cls) -> "DegreeFunction":
        """Size of the partition: gamma_k = k."""
        return cls("deg1", lambda k: k)

    @classmethod
    def deg2(cls) -> "DegreeFunction":
        """Size plus the number of unit parts: gamma_1 = 2, gamma_k = k for k >= 2."""
        return cls("deg2", lambda k: k + (k == 1))

    @classmethod
    def deg3(cls) -> "DegreeFunction":
        """Cayley length, size minus number of parts: gamma_k = k - 1."""
        return cls("deg3", lambda k: k - 1)

    @classmethod
    def theta_J(cls, J) -> "DegreeFunction":
        """Size plus the multiplicities of part lengths in J."""
        J = frozenset(_ints(J, "theta_J lengths"))
        return cls("theta_J{" + ",".join(str(k) for k in sorted(J)) + "}",
                   lambda k: k + (k in J))

    @classmethod
    def additive(cls, gamma: Sequence[int]) -> "DegreeFunction":
        """theta(rho) = sum_k gamma_k m_k(rho) with gamma_k = gamma[k-1]."""
        g = tuple(_ints(gamma, "gamma entries"))

        def gamma_k(k: int) -> int:
            if k > len(g):
                raise ValueError(f"gamma list too short: need index {k}, have {len(g)}")
            return g[k - 1]

        return cls("additive(" + ",".join(str(x) for x in g) + ")", gamma_k)

    def __call__(self, rho: Partition) -> int:
        return sum(map(self._gamma, rho.parts))

    def gammas(self, length: int) -> tuple[int, ...]:
        """(gamma_1, ..., gamma_length)."""
        return tuple(map(self._gamma, range(1, length + 1)))

    def label(self) -> str:
        return self._label

    def __repr__(self) -> str:
        return f"DegreeFunction({self.label()})"


@dataclass(frozen=True)
class Violation:
    sigma: Partition
    tau: Partition
    rho: Partition
    theta_rho: int
    theta_bound: int

    def line(self) -> str:
        return (f"sigma={self.sigma} tau={self.tau} rho={self.rho} "
                f"theta_rho={self.theta_rho} bound={self.theta_bound}")


def check_filtration(theta: DegreeFunction,
                     bound: int = FILTRATION_DEFAULT_BOUND) -> list[Violation]:
    """Scan all sigma, tau up to the size bound for filtration violations.

    Consumes the cached structure-constant table g_table(bound), at any
    bound; every rho with a nonzero constant is tested against
    theta(sigma) + theta(tau).
    """
    out = []
    for (sigma, tau), expansion in sorted(
            g_table(bound).items(),
            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
        cap = theta(sigma) + theta(tau)
        for rho in sorted(expansion, key=Partition.sort_key):
            t = theta(rho)
            if t > cap:
                out.append(Violation(sigma, tau, rho, t, cap))
    return out


@dataclass(frozen=True)
class GammaViolation:
    rule: str
    indices: tuple[int, ...]
    lhs: int
    rhs: int

    def line(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        return f"rule {self.rule} at ({idx}): {self.lhs} > {self.rhs}"


def _check_K(K: int) -> None:
    """Raise ValueError unless K is an int (not a bool) of at least 1."""
    _check_int(K, "K")
    if K < 1:
        raise ValueError("K must be at least 1")


def check_gamma_inequalities(gamma: Sequence[int], K: int) -> list[GammaViolation]:
    """Check the numbered inequality families on gamma_1..gamma_K.

    Rules: monotonicity and nonnegativity; the two-cycle splitting bound
    gamma_{i+j+1} <= gamma_{i+1} + gamma_{j+1}; the inverse-cycle bound
    k gamma_1 <= 2 gamma_k; the transposition-chain bound
    gamma_{k+1} <= k gamma_2; and its doubling special case
    gamma_{2k+1} <= 2 gamma_{k+1}.
    """
    g = _ints(gamma, "gamma entries")
    _check_K(K)
    if len(g) < K:
        raise ValueError(f"need at least K={K} entries, got {len(g)}")

    def gam(k: int) -> int:
        return g[k - 1]

    out = []
    if gam(1) < 0:
        out.append(GammaViolation("nonneg", (1,), 0, gam(1)))
    for k in range(1, K):
        if gam(k) > gam(k + 1):
            out.append(GammaViolation("monotone", (k,), gam(k), gam(k + 1)))
    for i in range(K):
        for j in range(K - i):
            if gam(i + j + 1) > gam(i + 1) + gam(j + 1):
                out.append(GammaViolation("split", (i, j),
                                          gam(i + j + 1), gam(i + 1) + gam(j + 1)))
    for k in range(1, K + 1):
        if k * gam(1) > 2 * gam(k):
            out.append(GammaViolation("inverse", (k,), k * gam(1), 2 * gam(k)))
    for k in range(1, K):
        if gam(k + 1) > k * gam(2):
            out.append(GammaViolation("chain", (k,), gam(k + 1), k * gam(2)))
    for k in range(1, (K - 1) // 2 + 1):
        if gam(2 * k + 1) > 2 * gam(k + 1):
            out.append(GammaViolation("double", (k,), gam(2 * k + 1), 2 * gam(k + 1)))
    return out


def limit_ratio(gamma: Sequence[int], K: int) -> Fraction:
    """Finite-K proxy min_{k<=K} gamma_{k+1}/k for the limit ratio.

    Only a proxy: the true quantity is the infimum over all k, which this
    artifact never claims to reach.
    """
    g = _ints(gamma, "gamma entries")
    _check_K(K)
    if len(g) < K + 1:
        raise ValueError(f"need at least K+1={K + 1} entries, got {len(g)}")
    return min(Fraction(g[k], k) for k in range(1, K + 1))
