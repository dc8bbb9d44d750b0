"""Verification suites: desk-scale reproduction of the published numbers.

Each suite returns its list of Checks, one per claim; run_suite alone
names and times a suite, wrapping its checks in a SuiteResult that the
CLI renders as lines and the acceptance tests assert on.  All
comparisons are exact.  A suite's first parameter, if it has any, is its
size bound, and its default is the bound the CLI runs at; size_bound
reads it for the CLI.

The published numbers the suites compare against live here too, next to
the suite that reads them: the section-6 and section-11 product tables as
rows of parts tuples, and the inline constants of the other suites.

The two character-free guards of the structure constants live here, the
one module that runs them: product_expansion_counted, which fixes one
factor and enumerates the other, and oracle_convolve, a brute-force
convolution in Q[S_n].  Neither reads characters or calls class_algebra's
route, which never imports them.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from . import class_algebra as ca
from . import filtrations as fl
from .characters import F_eval, s_star, x_mu
from .fillings import FILLINGS_DEFAULT_MAX, Filling, convolve, enumerate_F
from .partial_perm import (_cycles, canonical_rep, enumerate_semigroup,
                           permutations_of_type, semigroup_size)
from .partitions import Partition, enumerate_partitions, partitions_up_to
from .semigroup_algebra import (SemigroupAlgebraElement, center_dimension,
                                center_dimension_by_pairs, epsilon, phi_x)

ORACLE_DEFAULT_BOUND = 7


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.label}{tail}"


@dataclass
class SuiteResult:
    name: str
    checks: list[Check]
    elapsed: float

    @property
    def ok(self) -> bool:
        """Every check passed, and there was at least one: a suite that ran
        none has shown nothing."""
        return bool(self.checks) and all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        passed = sum(1 for c in self.checks if c.ok)
        out.append(f"suite {self.name}: {passed}/{len(self.checks)} checks passed "
                   f"in {self.elapsed:.1f}s")
        return out


def _failures(label: str, bad: list, passed: str = "") -> Check:
    """Pass when nothing is bad; otherwise quote the first three bad cases."""
    return Check(label, not bad, passed if not bad else f"failed {bad[:3]}")


def _same(label: str, got: dict[Partition, int], row: dict[tuple[int, ...], int]) -> Check:
    """An expansion against its table row, keyed by parts, quoting the
    expansion on failure."""
    ok = got == {Partition(parts): c for parts, c in row.items()}
    return Check(label, ok, "" if ok else f"got {{{_fmt_terms(got)}}}")


def _fmt_terms(terms) -> str:
    items = sorted(terms.items(), key=lambda kv: kv[0].sort_key())
    return ", ".join(f"({p}): {c}" for p, c in items)


# ---------------------------------------------------------------------------
# character-free guards: the counted expansion and the convolution oracle


def _counting_cost(sigma: Partition, tau: Partition) -> int:
    """How many b product_expansion_counted(sigma, tau) enumerates."""
    s, t = sigma.size(), tau.size()
    return factorial(t) // tau.centralizer_size() * sum(comb(s, j) for j in range(min(s, t) + 1))


def product_expansion_counted(sigma: Partition, tau: Partition) -> dict[Partition, int]:
    """Guard route: every nonzero g_{sigma,tau}^rho, counted with one factor fixed.

    S_r acts transitively on the type-sigma elements supported in {1..r}
    and preserves the pairs counted, so with a = canonical_rep(sigma) on
    {1..s}, g^rho = C(r,s) s! z_rho N_rho / (z_sigma r!) = z_rho N_rho /
    (z_sigma (r-s)!), where N_rho counts the b of type tau with support
    {s+1..r} plus |tau|-(r-s) points of {1..s} and a b of type rho.  One
    pass over those b per level r finds every rho of that level, keys in
    canonical order.  g is commutative, so the factor enumerated is the
    one with the smaller _counting_cost.  No characters, no pruning.
    """
    if _counting_cost(tau, sigma) < _counting_cost(sigma, tau):
        sigma, tau = tau, sigma
    s, t = sigma.size(), tau.size()
    a = list(map(canonical_rep(sigma), range(s + t + 1)))  # images, a[0] = 0 unused
    out: dict[Partition, int] = {}
    for r in range(max(s, t), s + t + 1):
        counts: dict[tuple[int, ...], int] = {}
        for x in combinations(range(1, s + 1), t - (r - s)):
            for b in permutations_of_type(x + tuple(range(s + 1, r + 1)), tau):
                ab = a[:r + 1]  # images of a b over {1..r}, walked and zeroed
                for y, z in b.items():
                    ab[y] = a[z]
                lengths = []
                for start in range(1, r + 1):
                    k, y = 0, start
                    while ab[y]:
                        ab[y], y = 0, ab[y]
                        k += 1
                    if k:
                        lengths.append(k)
                lam = tuple(sorted(lengths, reverse=True))
                counts[lam] = counts.get(lam, 0) + 1
        den = sigma.centralizer_size() * factorial(r - s)
        for lam in sorted(counts, reverse=True):
            rho = Partition(lam)
            g, rem = divmod(rho.centralizer_size() * counts[lam], den)
            if rem:
                raise RuntimeError(
                    f"non-integral count for {sigma}, {tau} -> {rho}: internal bug")
            out[rho] = g
    return out


def oracle_convolve(sigma: Partition, tau: Partition, n: int) -> ca.ClassVector:
    """Convolve the psi images by explicit enumeration over S_n.

    Independent of the structure-constant engine: builds both class sums
    as explicit permutation lists, multiplies term by term, buckets the
    result by cycle type, and reads off proper-class coefficients.  Cost
    is the product of the two class sizes, which grows like n! per factor;
    suite_oracle's bound, which verify --max-size raises, is what limits n.
    """
    if sigma.size() > n or tau.size() > n:
        return ca.ClassVector({}, n)
    # padded to size n, each class is a set of permutations of {1..n}
    points = range(1, n + 1)
    c1, c2 = ([tuple(map(w.get, points)) for w in permutations_of_type(points, p.pad(n))]
              for p in (sigma, tau))
    conv = Counter(tuple(w1[x - 1] for x in w2) for w1 in c1 for w2 in c2)
    by_type: dict[tuple[int, ...], list[int]] = {}
    for w, c in conv.items():
        lam = tuple(sorted(map(len, _cycles(dict(enumerate(w, 1)), points)), reverse=True))
        by_type.setdefault(lam, []).append(c)
    scale = ca.psi_image(sigma, n)[0] * ca.psi_image(tau, n)[0]
    out: dict[Partition, Fraction] = {}
    for lam, counts in by_type.items():
        # central: one count over the whole class
        size = factorial(n) // Partition(lam).centralizer_size()
        if len(counts) != size or len(set(counts)) != 1:
            raise RuntimeError("oracle produced a non-central element")
        out[Partition(lam).strip_ones()] = Fraction(scale * counts[0])
    return ca.ClassVector(out, n)


# ---------------------------------------------------------------------------
# the suites


# The published tables, in the paper's order.  A row names its factors and
# its expansion by parts tuples: (sigma, tau, {rho: coefficient}).

# section 6: A(2)*A(2), stable and then truncated to A_2, A_3, A_4; a row
# is (sigma, tau, level, terms), level None for the stable product
SECTION6 = [
    ((2,), (2,), None, {(1, 1): 1, (3,): 3, (2, 2): 2}),
    ((2,), (2,), 2, {(1, 1): 1}),
    ((2,), (2,), 3, {(1, 1): 1, (3,): 3}),
    ((2,), (2,), 4, {(1, 1): 1, (3,): 3, (2, 2): 2}),
]

# section 11: the rescaled-basis table a(sigma)*a(tau), all seventeen rows
SECTION11_A = [
    ((2,), (2,), {(2, 2): 1, (3,): 4, (1, 1): 2}),
    ((3,), (2,), {(3, 2): 1, (4,): 6, (2, 1): 6}),
    ((4,), (2,), {(4, 2): 1, (5,): 8, (2, 2): 4, (3, 1): 8}),
    ((2, 2), (2,), {(2, 2, 2): 1, (3, 2): 8, (4,): 8, (2, 1, 1): 4}),
    ((3,), (3,), {(3, 3): 1, (5,): 9, (2, 2): 9, (3, 1): 9, (3,): 3, (1, 1, 1): 3}),
    ((5,), (2,), {(5, 2): 1, (6,): 10, (3, 2): 10, (4, 1): 10}),
    ((3, 2), (2,), {(3, 2, 2): 1, (4, 2): 6, (3, 3): 4, (5,): 12, (2, 2, 1): 6,
                    (3, 1, 1): 2}),
    ((4,), (3,), {(4, 3): 1, (6,): 12, (3, 2): 24, (4, 1): 12, (4,): 12, (2, 1, 1): 12}),
    ((2, 2), (3,), {(3, 2, 2): 1, (4, 2): 12, (5,): 24, (2, 2, 1): 12, (3, 1): 24}),
    ((6,), (2,), {(6, 2): 1, (7,): 12, (4, 2): 12, (3, 3): 6, (5, 1): 12}),
    ((4, 2), (2,), {(4, 2, 2): 1, (5, 2): 8, (4, 3): 4, (6,): 16, (2, 2, 2): 4,
                    (3, 2, 1): 8, (4, 1, 1): 2}),
    ((3, 3), (2,), {(3, 3, 2): 1, (4, 3): 12, (6,): 18, (3, 2, 1): 12}),
    ((2, 2, 2), (2,), {(2, 2, 2, 2): 1, (3, 2, 2): 12, (4, 2): 24, (2, 2, 1, 1): 6}),
    ((5,), (3,), {(5, 3): 1, (7,): 15, (4, 2): 30, (3, 3): 15, (5, 1): 15, (5,): 30,
                  (2, 2, 1): 15, (3, 1, 1): 15}),
    ((3, 2), (3,), {(3, 3, 2): 1, (5, 2): 9, (4, 3): 6, (6,): 36, (2, 2, 2): 9,
                    (3, 2, 1): 15, (3, 2): 21, (4, 1): 36, (2, 1, 1, 1): 3}),
    ((4,), (4,), {(4, 4): 1, (7,): 16, (4, 2): 32, (3, 3): 24, (5, 1): 16, (5,): 48,
                  (2, 2, 1): 32, (2, 2): 4, (3, 1, 1): 16, (3, 1): 16, (1, 1, 1, 1): 4}),
    ((2, 2), (2, 2), {(2, 2, 2, 2): 1, (3, 2, 2): 16, (4, 2): 32, (3, 3): 32, (5,): 64,
                      (2, 2, 1, 1): 8, (3, 1, 1): 32, (2, 2): 16, (1, 1, 1, 1): 8}),
]

# section 11, derived from the a(3)*a(3) row: the A-basis product A(3)*A(3),
# the class convolution C(3)*C(3) in S_n by n, and the coefficient
# polynomial of each proper class rho in the binomial basis [c_0, c_1, ...]
SECTION11_PAIR = ((3,), (3,))
SECTION11_A33 = {(3, 3): 2, (5,): 5, (2, 2): 8, (3, 1): 3, (3,): 1, (1, 1, 1): 2}
SECTION11_C33 = {
    3: {(): 2, (3,): 1},
    4: {(): 8, (3,): 4, (2, 2): 8},
    5: {(): 20, (3,): 7, (2, 2): 8, (5,): 5},
    6: {(): 40, (3,): 10, (2, 2): 8, (5,): 5, (3, 3): 2},
}
SECTION11_Q33 = {(3, 3): (2,), (5,): (5,), (2, 2): (8,), (3,): (1, 3), (): (0, 0, 0, 2)}


def suite_section6() -> list[Check]:
    checks = []
    for s, t, level, terms in SECTION6:
        sigma, tau = Partition(s), Partition(t)
        got = ca.multiply(ca.ClassVector.basis(sigma), ca.ClassVector.basis(tau), n=level).terms
        where = " stable" if level is None else f" in A_{level}"
        checks.append(_same(f"A({sigma})*A({tau}){where}", got, terms))
    return checks


def suite_section11() -> list[Check]:
    checks = []
    for s, t, terms in SECTION11_A:
        sigma, tau = Partition(s), Partition(t)
        checks.append(_same(f"a({sigma})*a({tau})", ca.product_expansion_a(sigma, tau), terms))
    sigma, tau = map(Partition, SECTION11_PAIR)
    expansion = ca.product_expansion(sigma, tau)
    checks.append(_same(f"A({sigma})*A({tau})", expansion, SECTION11_A33))
    for n, terms in SECTION11_C33.items():
        checks.append(_same(f"C({sigma})*C({tau}) in S_{n}",
                            ca.convolve_C_classes(sigma, tau, n).terms, terms))
    for rho, coeffs in SECTION11_Q33.items():
        rho = Partition(rho)
        q = ca.q_polynomial(sigma, tau, rho)
        ok = q.coeffs == coeffs
        checks.append(Check(
            f"q C({sigma})*C({tau}) -> C({rho}) = {q.monomial_string()}",
            ok, "" if ok else f"got {list(q.coeffs)}"))
    # q is nonzero exactly for the proper parts of the expansion's keys
    proper = {rho.strip_ones() for rho in expansion}
    extra = sorted(proper - set(map(Partition, SECTION11_Q33)), key=Partition.sort_key)
    checks.append(Check(
        f"no unlisted classes in C({sigma})*C({tau})", not extra,
        "" if not extra else f"extra {[str(p) for p in extra]}"))
    return checks


def _identity_row(k: int, rho: Partition) -> list[tuple[Partition, Fraction]]:
    """A_{1^k} A_rho in closed form, keys ascending: p#_{1^k}(lam) = (n)_k
    and (n)_k (n)_r = sum_j C(k,j) C(r,j) j! (n)_{k+r-j}, r = |rho|, give
    C(k,j) C(r,j) j! z_mu / (k! z_rho) on mu = rho u 1^(k-j), j <= min(k, r):
    a 1^k identity meeting j points of the support of a rho-type b leaves
    b's type and adds k - j fixed points."""
    r, z = rho.size(), rho.centralizer_size()
    row = []
    for j in range(min(k, r), -1, -1):
        mu = rho.pad(r + k - j)
        row.append((mu, Fraction(comb(k, j) * comb(r, j) * factorial(j) * mu.centralizer_size(),
                                 factorial(k) * z)))
    return row


def suite_oracle(max_total: int = ORACLE_DEFAULT_BOUND) -> list[Check]:
    """g-route convolution against brute force in Q[S_n] at n = |sigma|+|tau|,
    and each pair's expansion, keys in order, against the counted guard: psi
    merges classes, so only the latter pins the individual g's.  Then every
    identity row A_{1^k} A_rho with k + |rho| <= max_total against its
    closed form, keys in order, which holds at any size."""
    checks = []
    for total in range(max_total + 1):
        pairs = 0
        bad = []
        for s in range(total + 1):
            for sigma in enumerate_partitions(s):
                for tau in enumerate_partitions(total - s):
                    n = total
                    via_g = ca.to_C_basis(
                        ca.multiply(ca.ClassVector.basis(sigma),
                                    ca.ClassVector.basis(tau), n=n), n)
                    via_oracle = oracle_convolve(sigma, tau, n)
                    pairs += 1
                    if (via_g != via_oracle
                            or list(ca.product_expansion(sigma, tau).items())
                            != list(product_expansion_counted(sigma, tau).items())
                            or sigma.is_proper() and tau.is_proper()
                            and ca.convolve_C_classes(sigma, tau, n) != via_oracle):
                        bad.append((sigma, tau))
        checks.append(_failures(f"|sigma|+|tau| = {total} (n = {total})", bad,
                                f"{pairs} pairs"))
    for total in range(max_total + 1):
        rows = [(k, rho) for k in range(total + 1) for rho in enumerate_partitions(total - k)]
        bad = [(k, rho) for k, rho in rows
               if list(ca.product_expansion(Partition((1,) * k), rho).items())
               != _identity_row(k, rho)]
        checks.append(_failures(f"A(1^k)*A(rho) closed form, k+|rho| = {total}", bad,
                                f"{len(rows)} rows"))
    return checks


def suite_fillings(max_size: int = FILLINGS_DEFAULT_MAX) -> list[Check]:
    checks = []
    s = Filling.from_string("3,4,5,6,9;2,1,7")
    t = Filling.from_string("4,3,2;1,9,6;8")
    got = convolve(s, t)
    want = Filling.from_string("5,6,7,2;3,1;4;9;8")
    checks.append(Check("worked convolution example", got == want,
                        "" if got == want else f"got {got}"))
    for ssz in range(max_size + 1):
        for tsz in range(max_size + 1):
            bad = []
            triples = 0
            for sigma in enumerate_partitions(ssz):
                for tau in enumerate_partitions(tsz):
                    for r in range(max(ssz, tsz), ssz + tsz + 1):
                        for rho in enumerate_partitions(r):
                            triples += 1
                            found = len(enumerate_F(sigma, tau, rho))
                            if found != ca.f_constant(sigma, tau, rho):
                                bad.append((sigma, tau, rho))
            checks.append(_failures(f"|F| = f for |sigma|={ssz}, |tau|={tsz}", bad,
                                    f"{triples} triples"))
    return checks


def suite_homomorphism(max_factor: int = 4) -> list[Check]:
    """F-multiplicativity, F(x_mu) = s*_mu and the vanishing of s*.

    F is evaluated at every |lambda| <= 2 max_factor, so every level of
    each product is checked.

    The structure constants are themselves computed through the
    characters behind F, so the first check no longer pins products
    independently; the oracle, fillings and section 6/11 table suites do.
    """
    checks = []
    top = 2 * max_factor
    lambdas = partitions_up_to(top)
    factors = partitions_up_to(max_factor)
    bad = []
    count = 0
    for sigma in factors:
        u = ca.ClassVector.basis(sigma)
        for tau in factors:
            v = ca.ClassVector.basis(tau)
            prod = ca.multiply(u, v)
            for lam in lambdas:
                count += 1
                if F_eval(prod, lam) != F_eval(u, lam) * F_eval(v, lam):
                    bad.append((sigma, tau, lam))
    checks.append(_failures(
        f"F(A_sigma A_tau) = F(A_sigma) F(A_tau), |sigma|,|tau| <= {max_factor}, "
        f"|lambda| <= {top}", bad, f"{count} evaluations"))
    bad = []
    for mu in partitions_up_to(3):
        xv = x_mu(mu)
        for lam in partitions_up_to(5):
            if F_eval(xv, lam) != s_star(mu, lam):
                bad.append((mu, lam))
    checks.append(_failures("F(x_mu) = s*_mu for |mu| <= 3, |lambda| <= 5", bad))
    bad = []
    for mu in partitions_up_to(5):
        if not mu.size():
            continue
        for lam in partitions_up_to(mu.size() - 1):
            if s_star(mu, lam) != 0:
                bad.append((mu, lam))
    checks.append(_failures("s*_mu(lambda) = 0 for |mu| > |lambda|, |mu| <= 5", bad))
    return checks


def suite_filtrations(bound: int = fl.FILTRATION_DEFAULT_BOUND) -> list[Check]:
    # the production route skips the classes that deg2, deg3, parity and the
    # Cayley triangle rule out, and reads pairs with unit parts off their
    # proper pairs, so the scans below would hold by construction unless
    # the table is first checked against the counted guard, which reads no
    # characters and finds every nonzero class
    mismatched = [(sigma, tau) for (sigma, tau), expansion in ca.g_table(bound).items()
                  if list(expansion.items())
                  != list(product_expansion_counted(sigma, tau).items())]
    checks = [Check(f"g_table({bound}) equals the counted guard, keys in order",
                    not mismatched,
                    "" if not mismatched
                    else f"{len(mismatched)} pairs differ, first sigma={mismatched[0][0]} "
                         f"tau={mismatched[0][1]}")]
    named = [("deg1", fl.DegreeFunction.deg1()),
             ("deg2", fl.DegreeFunction.deg2()),
             ("deg3", fl.DegreeFunction.deg3())]
    for J in [frozenset(), frozenset({1}), frozenset({2}),
              frozenset({1, 2}), frozenset({1, 3})]:
        theta = fl.DegreeFunction.theta_J(J)
        named.append((theta.label(), theta))
    for label, theta in named:
        violations = fl.check_filtration(theta, bound)
        checks.append(Check(f"{label} is a filtration at bound {bound}",
                            not violations,
                            "" if not violations else violations[0].line()))
    bad_theta = fl.DegreeFunction.additive((0,) + (1,) * (2 * bound - 1))
    violations = fl.check_filtration(bad_theta, bound)
    target = (Partition((4,)), Partition((5,)), Partition((2, 2, 2)))
    hit = any((v.sigma, v.tau, v.rho) == target or (v.tau, v.sigma, v.rho) == target
              for v in violations)
    checks.append(Check(
        "cycle-count degree fails at sigma=(4) tau=(5) rho=(2,2,2)", hit,
        f"{len(violations)} violations found"))
    return checks


def suite_gamma(K: int = 8) -> list[Check]:
    checks = []
    for theta in (fl.DegreeFunction.deg1(), fl.DegreeFunction.deg2(),
                  fl.DegreeFunction.deg3()):
        label, gam = theta.label(), theta.gammas(K + 1)
        violations = fl.check_gamma_inequalities(gam, K)
        checks.append(Check(f"gamma inequalities for {label} up to K={K}",
                            not violations,
                            "" if not violations else violations[0].line()))
        proxy = fl.limit_ratio(gam, K)
        sandwich = Fraction(gam[0]) <= 2 * proxy <= 2 * Fraction(gam[1])
        checks.append(Check(f"gamma_1 <= 2 L <= 2 gamma_2 for {label} (L proxy {proxy})",
                            sandwich))
    decreasing = (3, 1) + tuple(range(4, K + 3))
    violations = fl.check_gamma_inequalities(decreasing, K)
    checks.append(Check("decreasing start is flagged", bool(violations),
                        "" if violations else "no violation reported"))
    return checks


def _vanishing_test_family(n: int, subsets: list[frozenset[int]],
                           basis: list[SemigroupAlgebraElement]
                           ) -> list[SemigroupAlgebraElement]:
    """The unit, the basis, each epsilon_d, a mixed sum and epsilon-basis products."""
    eps = [epsilon(d, n) for d in subsets]
    mixed = basis[0]
    coeff = 1
    for b in basis:
        coeff += 2
        mixed = mixed + coeff * b
    return ([SemigroupAlgebraElement.unit(n)] + basis + eps + [mixed]
            + [e * b for e, b in zip(eps, basis[::-1])])


def suite_semigroup(max_n: int = 3) -> list[Check]:
    checks = []
    counts = [sum(1 for _ in enumerate_semigroup(n)) for n in range(5)]
    ok = counts == [1, 2, 5, 16, 65]
    checks.append(Check("semigroup sizes s_0..s_4 = 1,2,5,16,65 by enumeration",
                        ok, "" if ok else f"got {counts}"))
    rec = all(semigroup_size(n) == n * semigroup_size(n - 1) + 1 for n in range(1, 9))
    formula = all(semigroup_size(n) == counts[n] for n in range(5))
    checks.append(Check("recurrence s_n = n s_{n-1} + 1 and formula agree",
                        rec and formula))
    bad = [n for n in range(7) if center_dimension(n) != center_dimension_by_pairs(n)]
    checks.append(Check("dim Z(B_n) formula matches pair counting, n <= 6", not bad,
                        "" if not bad else f"failed at {bad}"))

    bad_pairs = []
    bad_mult = []
    for n in range(max_n + 1):
        subsets = [frozenset(c) for k in range(n + 1)
                   for c in combinations(range(1, n + 1), k)]
        basis = [SemigroupAlgebraElement.basis(pp, n)
                 for pp in enumerate_semigroup(n)]
        family = _vanishing_test_family(n, subsets, basis)
        # phi_x images once per element and n; basis products are in the basis
        phi = {e: [phi_x(e, x) for x in subsets] for e in family}
        for b in family:
            nonzero = [y for y, image in zip(subsets, phi[b]) if not image.is_zero()]
            for x in subsets:
                cond_phi = not any(y <= x for y in nonzero)
                cond_coeff = all(not (pp.support <= x) for pp in b.terms)
                if cond_phi != cond_coeff:
                    bad_pairs.append((n, x))
        for a in basis:
            for b in basis:
                ab = a * b
                images = phi[ab] if ab in phi else [phi_x(ab, x) for x in subsets]
                for x, fab, fa, fb in zip(subsets, images, phi[a], phi[b]):
                    if fab != fa * fb:
                        bad_mult.append((n, x))
    checks.append(_failures(
        f"phi-vanishing equivalence over structured elements, n <= {max_n}", bad_pairs))
    checks.append(_failures(f"phi_x multiplicative on all basis pairs, n <= {max_n}",
                            bad_mult))
    return checks


SUITES = {
    "section6": suite_section6,
    "section11": suite_section11,
    "oracle": suite_oracle,
    "fillings": suite_fillings,
    "homomorphism": suite_homomorphism,
    "filtrations": suite_filtrations,
    "gamma": suite_gamma,
    "semigroup": suite_semigroup,
}


def _suite(name: str):
    """SUITES[name]; an unknown name raises ValueError listing the suites."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]


def size_bound(name: str) -> inspect.Parameter | None:
    """The size bound of SUITES[name], its first parameter, or None if the
    suite takes none; the parameter's default is the bound the CLI runs at."""
    params = list(inspect.signature(_suite(name)).parameters.values())
    return params[0] if params else None


def run_suite(name: str, **options) -> SuiteResult:
    """Run SUITES[name] with the given options; the result carries the
    suite's name, its checks and the time it took."""
    suite = _suite(name)
    start = time.perf_counter()
    checks = suite(**options)
    return SuiteResult(name, checks, time.perf_counter() - start)
