"""The invariant class algebra: structure constants, products, polynomials.

Basis elements A_rho are indexed by partitions of arbitrary size; the
structure constant g_{sigma,tau}^rho counts pairs of partial permutations
of types sigma, tau multiplying to a fixed representative of type rho.

The product A_sigma A_tau spreads over the levels m = max(s, t) .. s + t,
s = |sigma| and t = |tau|.  The evaluation isomorphism F sends A_rho to
p#_rho / z_rho, with p#_rho(lam) = (n)_r chi^lam_{rho 1^(n-r)} / dim lam
at lam of size n and r = |rho|.  Two consequences give the production
route.

Unit parts go through A_(1).  F(A_(1)) = p#_(1) = n.  For a proper rho'
(no part equal to 1) and rho = rho' 1^k, the characters of rho and rho'
at lam agree, (n)_{|rho|} = (n)_{|rho'|} (n - |rho'|)_k and z_rho =
z_rho' k!, so F(A_rho) = C(n - |rho'|, k) F(A_rho'), and since F is
injective

    A_{rho' 1^k} = C(A_(1) - |rho'|, k) A_rho'.

At k = 1 this is the two-term product A_(1) A_rho = |rho| A_rho +
(m_1(rho) + 1) A_{rho u (1)}.  So with sigma = sigma' 1^i and tau =
tau' 1^j, A_sigma A_tau is A_sigma' A_tau' times the i + j factors
(A_(1) - c), c = |sigma'| .. |sigma'| + i - 1 and |tau'| .. |tau'| + j - 1,
divided by i! j!.  Each factor acts on the terms by the two-term product,
so a pair with unit parts reads no character beyond its proper pair's.

A proper pair reads the levels below s + t - 1 off characters of
symmetric groups: at each such level column orthogonality of the
character table of S_m gives, for every mu of size m, the integer

    T_m(mu) = sum_lam chi^lam_mu chi^lam_{sigma 1^(m-s)} chi^lam_{tau 1^(m-t)}
              H_lam / (z_sigma z_tau (m-s)! (m-t)!)
            = sum_j C(m_1(mu), j) g^{mu minus j unit parts},

with H_lam = m!/dim lam the hook product.  Peeling off the lower levels
leaves g^mu; every step is exact integer arithmetic, and a division that
leaves a remainder raises RuntimeError instead of rounding.  Cost follows
the character columns built, not s + t.

At the two top levels, the largest ones, the supports of the two factors
meet in at most one point, and one count gives the constants with no
characters.  On a fixed m-set, the pairs (a, b) of types sigma, tau whose
supports cover it and whose product has type mu number
m! N_mu / (z_sigma z_tau); dividing by the m!/z_mu elements of type mu
there gives

    g^mu = z_mu N_mu / (z_sigma z_tau).

At m = s + t the supports are disjoint: all C(m, s) (s!/z_sigma)
(t!/z_tau) pairs have type sigma u tau, and N = 1.  At m = s + t - 1 they
share one point x, and the cycles of a and b through x join into one: a
k-cycle and an l-cycle give a (k + l - 1)-cycle, the join half of cut and
join.  A given k-cycle of a and l-cycle of b hold x in
m! k l / (z_sigma z_tau) of the pairs, so N_mu sums k l over the pairs of
positions, one part of sigma and one of tau, whose join gives mu.  The
division is exact, a remainder raising RuntimeError.  A product with a
factor 1^k, such as the unit or A_(1), reads no character at all.

Only the allowed mu are evaluated: g^mu vanishes unless deg2(mu) =
|mu| + m_1(mu) is at most deg2(sigma) + deg2(tau) (the paper's filtration
result, also the Ivanov-Olshanski weight filtration) and the Cayley length
deg3(mu) = |mu| - l(mu) is at most deg3(sigma) + deg3(tau).  On the union
support a product of partial permutations a b = r is a product of
permutations, whose Cayley lengths (fewest transpositions) are deg3 of
their types.  Since sign(r) = sign(a) sign(b) and a = r b^-1, g^mu also
vanishes unless deg3(mu) has the parity of deg3(sigma) + deg3(tau) and is
at least |deg3(sigma) - deg3(tau)|.  For the proper pairs that reach the
characters deg2 is the size, so at level m the allowed mu have
m_1(mu) <= s + t - m: they fill a rectangle in (deg3, m_1).  (The moved
points of r, mv = |.| - m_1, lie between |mv(sigma) - mv(tau)| and
mv(sigma) + mv(tau); with mv = size that adds nothing at m >= max(s, t).)
Dropping unit parts keeps mu allowed (deg3 stays, deg2 drops), so the
peel only ever needs allowed classes.  Each character level reads the
columns of sigma 1^(m-s), tau 1^(m-t) and the allowed mu from the
characters module's column cache, one column per cycle type.

Those columns hold only the representatives lam, the shapes at or
before lam' in canonical order, and T_m(mu) is summed over them alone.
Since chi^{lam'}_rho = eps_rho chi^lam_rho with eps_rho = (-1)^deg3(rho),
and eps is the same for rho and rho 1^k, the summand at lam' is
eps_mu eps_sigma eps_tau times the one at lam; and H_lam' = H_lam.  An
allowed mu has deg3(mu) of the parity of deg3(sigma) + deg3(tau), so that
sign is +1, and

    T_m(mu) = sum over representatives lam of w_lam chi^lam_mu
              chi^lam_{sigma 1^(m-s)} chi^lam_{tau 1^(m-t)} H_lam
              / (z_sigma z_tau (m-s)! (m-t)!),

w_lam = 1 for a self-conjugate lam and 2 otherwise.  The hook products
of S_m with that weight folded in, and the classes of S_m, each with its
deg3 and m_1, belong to this module alone: _level_table(m) builds them,
the products from the column of 1^m, and only _expand reads them; each
level filters its classes by (deg3, m_1), in canonical order.

Products of class vectors (multiply) and the psi sum into Z(Q[S_n])
(to_C_basis, convolve_C_classes) add integers: a ClassVector holds its
coefficients as integer numerators over one denominator, both sums read
the numerators, and each hands its integer result and denominator to the
ClassVector's trusted constructor, which reduces them.  multiply relies
on the expansion keys ascending in size and stops reading each expansion
at the first key above the truncation level.  to_C_basis refuses a vector
truncated below n, which lacks terms that psi needs.

Two guards that read no characters live in the verify module, the one
that runs them: the counted guard fixes one factor and enumerates the
other, so it finds every nonzero g^mu and checks the values and the
pruning together; a brute-force group-algebra convolution checks the psi
images.  The production route never consults them, and this module does
not import partial_perm.  The two top levels reach sizes where the
counted guard does not, so the tests also pin them against the
character sum of each of their classes and, for A_(2) A_nu, against
cut-and-join counts of transpositions; and they pin products with unit
parts there by F-multiplicativity on characters from beta tuples.

All values are immutable and the caches only grow, so concurrent readers
are safe; every cache is a functools cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial
from operator import mul
from typing import Iterable, NoReturn

from .characters import _column, _conjugate, _positions
from .class_vector import ClassVector, _check_level
from .partitions import Partition, _check_int, _ints, enumerate_partitions, partitions_up_to

# ---------------------------------------------------------------------------
# the structure-constant route


@cache
def _level_table(m: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, Partition], ...]]:
    """The weighted hook products of the representatives lam of S_m in
    canonical order, m!/dim lam times 2 for a shape with a distinct
    conjugate and 1 for a self-conjugate one, with dim lam = chi^lam_{1^m}
    read off the cached column of 1^m; and the classes mu of S_m in
    canonical order, each as (m - l(mu), m_1(mu), mu): its Cayley length
    and unit parts."""
    classes = tuple((m - len(mu.parts), mu.parts.count(1), mu) for mu in enumerate_partitions(m))
    hooks = tuple((1 + (_conjugate(mask) != mask)) * (factorial(m) // d)
                  for mask, d in zip(_positions(m)[0], _column((1,) * m)))
    return hooks, classes


@cache
def _expand(sigma: Partition, tau: Partition) -> dict[Partition, int]:
    """The production route: every nonzero g_{sigma,tau}^mu, level by level,
    cached per ordered pair (product_expansion orders the pair).

    A pair with unit parts, sigma = sigma' 1^i or tau = tau' 1^j with i or
    j nonzero, reads its proper pair's cached expansion and applies the
    i + j factors (L - c) of the A_(1) reduction (module docstring).  Its
    terms group into chains by proper part, entry a of a chain holding the
    coefficient of A_{rho' 1^a}, and each factor maps a chain to
    new_a = (|rho'| - c + a) old_a + a old_{a-1}.  The result is divided
    exactly by i! j!, a remainder raising RuntimeError.  A factor 1^k
    therefore reads no character.

    For a proper pair the levels m = max(s, t) .. s + t - 2 (s = |sigma|,
    t = |tau|) read characters.  Only the mu that deg2, deg3, the sign and
    the Cayley triangle allow (module docstring) are evaluated: one pass
    over the classes of _level_table(m), in canonical order, skips those
    outside the (deg3, m_1) rectangle.  Each gets T_m(mu) from the cached
    half columns and weighted hook products, then loses C(m_1, m_1') g for each nonzero g
    found at a lower level for the same proper part with m_1' unit parts.
    A division that leaves a remainder raises RuntimeError instead of
    rounding.

    The two top levels read no characters: every position of a part k of
    sigma and a part l of tau adds k l to N_mu, mu = (sigma minus k) u
    (tau minus l) u (k + l - 1), at level s + t - 1; sigma u tau has
    N = 1 at level s + t; and g^mu = z_mu N_mu / (z_sigma z_tau) (module
    docstring).  Every division in _expand goes through _inexact on a
    remainder.
    """
    ps, pt = sigma.parts, tau.parts
    i, j = ps.count(1), pt.count(1)
    if i or j:
        ps, pt = ps[:len(ps) - i], pt[:len(pt) - j]
        s, t = sum(ps), sum(pt)
        chains: dict[tuple[int, ...], list[int]] = {}
        for rho, g in product_expansion(Partition._of(ps), Partition._of(pt)).items():
            a = rho.parts.count(1)
            chain = chains.setdefault(rho.parts[:len(rho.parts) - a], [])
            chain += [0] * (a + 1 - len(chain))
            chain[a] = g
        den = factorial(i) * factorial(j)
        terms: dict[tuple[int, ...], int] = {}
        for bar, chain in chains.items():
            for c in [*range(s, s + i), *range(t, t + j)]:
                shift = sum(bar) - c
                chain.append(0)
                for a in range(len(chain) - 1, 0, -1):
                    chain[a] = (shift + a) * chain[a] + a * chain[a - 1]
                chain[0] *= shift
            for a, x in enumerate(chain):
                g, rem = divmod(x, den)
                if rem:
                    _inexact(sigma, tau, bar + (1,) * a)
                if g:
                    terms[bar + (1,) * a] = g
        # canonical order: ascending size, reverse-lexicographic within a size
        return {Partition._of(mu): terms[mu] for mu in sorted(sorted(terms, reverse=True), key=sum)}
    column = _column
    s, t = sigma.size(), tau.size()
    zz = sigma.centralizer_size() * tau.centralizer_size()
    d3s, d3t = s - sigma.length(), t - tau.length()
    deg3s = range(abs(d3s - d3t), d3s + d3t + 1, 2)
    found: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    out: dict[Partition, int] = {}
    for m in range(max(s, t), s + t - 1):
        hooks, classes = _level_table(m)
        weights = [a * b * h for a, b, h in zip(column(ps + (1,) * (m - s)),
                                                column(pt + (1,) * (m - t)), hooks)]
        den = zz * factorial(m - s) * factorial(m - t)
        m1s = range(s + t - m + 1)
        for d3, m1, mu in classes:
            if d3 not in deg3s or m1 not in m1s:
                continue
            g, rem = divmod(sum(map(mul, column(mu.parts), weights)), den)
            if rem:
                _inexact(sigma, tau, mu)
            lower = found.setdefault(mu.parts[:len(mu.parts) - m1], [])
            for k, h in lower:
                g -= comb(m1, k) * h
            if g:
                lower.append((m1, g))
                out[mu] = g
    counts = {tuple(sorted(ps + pt, reverse=True)): 1}
    for a, k in enumerate(ps):
        rest = ps[:a] + ps[a + 1:]
        for b, l in enumerate(pt):
            mu = tuple(sorted(rest + pt[:b] + pt[b + 1:] + (k + l - 1,), reverse=True))
            counts[mu] = counts.get(mu, 0) + k * l
    for parts in sorted(sorted(counts, reverse=True), key=sum):
        mu = Partition._of(parts)
        g, rem = divmod(mu.centralizer_size() * counts[parts], zz)
        if rem:
            _inexact(sigma, tau, mu)
        out[mu] = g
    return out


def _inexact(sigma: Partition, tau: Partition, mu: object) -> NoReturn:
    """Raise for a division in _expand that leaves a remainder: the route
    never rounds."""
    raise RuntimeError(f"non-integral class coefficient for {sigma}, {tau} -> {mu}: internal bug")


def product_expansion(sigma: Partition, tau: Partition) -> dict[Partition, int]:
    """Nonzero g_{sigma,tau}^rho for all rho, cached per unordered pair.

    Keys come in ascending size, reverse-lexicographically within a size.
    The factor with the smaller parts tuple goes to the cached _expand
    first; the tests check that _expand is commutative and that it
    matches, keys in order, the counted guard
    verify.product_expansion_counted.
    """
    return _expand(tau, sigma) if tau.parts < sigma.parts else _expand(sigma, tau)


def g_constant(sigma: Partition, tau: Partition, rho: Partition) -> int:
    """The structure constant g_{sigma,tau}^rho.

    Counts pairs of partial permutations of types sigma, tau whose product
    is the canonical representative of rho; zero unless
    max(|sigma|,|tau|) <= |rho| <= |sigma|+|tau|.
    """
    if rho.size() > sigma.size() + tau.size():
        return 0
    return product_expansion(sigma, tau).get(rho, 0)


def g_table(bound: int) -> dict[tuple[Partition, Partition], dict[Partition, int]]:
    """All expansions for |sigma|, |tau| <= bound, one per unordered pair.

    Entries follow the pairs (a, b) with a at or before b in the canonical
    order; each key lists the partition with the smaller parts tuple first.
    The values are the cached product_expansion dicts.
    """
    parts_all = partitions_up_to(bound)
    table = {}
    for i, a in enumerate(parts_all):
        for b in parts_all[i:]:
            table[(b, a) if b.parts < a.parts else (a, b)] = product_expansion(a, b)
    return table


# ---------------------------------------------------------------------------
# products of class vectors


def multiply(u: ClassVector, v: ClassVector, n: int | None = None) -> ClassVector:
    """Bilinear product via the structure constants, truncated at n if given.

    The truncation level is the least of n, u.level and v.level.  Summed in
    integers over u.den v.den: a pair of numerators a, b adds a b g for
    each rho of its product expansion.  The expansion keys ascend in size,
    so each one is read only up to the first key above the truncation
    level.  Terms that cancel to zero are dropped.  n must be None or an
    int >= 0 (ValueError otherwise).
    """
    _check_level(n)
    levels = [x for x in (n, u.level, v.level) if x is not None]
    eff = min(levels) if levels else None
    out: dict[Partition, int] = {}
    for sigma, a in u.nums.items():
        for tau, b in v.nums.items():
            ab = a * b
            for rho, g in product_expansion(sigma, tau).items():
                if eff is not None and rho.size() > eff:
                    break
                out[rho] = out.get(rho, 0) + ab * g
    return ClassVector._of(out, u.den * v.den, eff)


def f_constant(sigma: Partition, tau: Partition, rho: Partition) -> int:
    """Structure constant in the rescaled basis a_rho = z_rho A_rho."""
    g = g_constant(sigma, tau, rho)
    if not g:
        return 0
    return _rescaled(sigma, tau, rho, sigma.centralizer_size() * tau.centralizer_size(), g)


def product_expansion_a(sigma: Partition, tau: Partition) -> dict[Partition, int]:
    """Expansion of a_sigma a_tau in the a basis (all nonzero f constants)."""
    zz = sigma.centralizer_size() * tau.centralizer_size()
    return {rho: _rescaled(sigma, tau, rho, zz, g)
            for rho, g in product_expansion(sigma, tau).items()}


def _rescaled(sigma: Partition, tau: Partition, rho: Partition, zz: int, g: int) -> int:
    """f_{sigma,tau}^rho = zz * g / z_rho, where zz = z_sigma z_tau."""
    num = zz * g
    den = rho.centralizer_size()
    if num % den:
        raise RuntimeError(
            f"non-integral f constant for {sigma}, {tau} -> {rho}: internal bug")
    return num // den


def psi_image(rho: Partition, n: int) -> tuple[int, Partition]:
    """Image of A_{rho;n} under support forgetting: a binomial times C_{rho;n}."""
    _check_int(n, "n", nonnegative=True)
    r = rho.size()
    if r > n:
        raise ValueError(f"|rho|={r} exceeds n={n}")
    m1 = rho.multiplicity(1)
    return comb(n - r + m1, m1), rho


# ---------------------------------------------------------------------------
# polynomials in the binomial basis


class BinomialPolynomial:
    """q(n) = sum_k c_k * C(n - |base|, k) with integer coefficients c_k."""

    __slots__ = ("base", "coeffs")

    def __init__(self, base: Partition, coeffs: Iterable[int]) -> None:
        cl = _ints(coeffs, "coefficients")
        while cl and cl[-1] == 0:
            cl.pop()
        self.base = base
        self.coeffs = tuple(cl)

    def evaluate(self, n: int) -> int:
        """q(n), the coefficient of C_{base;n} in the class convolution at n.

        n must be an int (not a bool) of at least |base| (ValueError
        otherwise)."""
        _check_int(n, "evaluation point")
        r = self.base.size()
        if n < r:
            raise ValueError(f"evaluation point {n} below |base|={r}")
        return sum(c * comb(n - r, k) for k, c in enumerate(self.coeffs))

    def monomial_coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in ascending powers of n (exact rationals), summed in
        integers over one denominator, (number of coefficients)!, which every
        k! divides."""
        r, den = self.base.size(), factorial(len(self.coeffs))
        total = [0] * (len(self.coeffs) + 1)
        poly = [1]  # (n - r)(n - r - 1) ... (n - r - k + 1), ascending powers
        for k, c in enumerate(self.coeffs):
            scale = c * (den // factorial(k))
            for d, a in enumerate(poly):
                total[d] += scale * a
            poly = [b - (r + k) * a for a, b in zip(poly + [0], [0] + poly)]
        while total and not total[-1]:
            total.pop()
        return tuple(Fraction(a, den) for a in total)

    def monomial_string(self) -> str:
        mc = self.monomial_coeffs()
        if not mc:
            return "0"
        chunks = []
        for d in range(len(mc) - 1, -1, -1):
            c = mc[d]
            if not c:
                continue
            sign = "-" if c < 0 else ("+" if chunks else "")
            c = abs(c)
            p, q = c.numerator, c.denominator
            if d == 0:
                body = str(p) if q == 1 else f"{p}/{q}"
            else:
                vp = "n" if d == 1 else f"n^{d}"
                head = "" if p == 1 else str(p)
                body = f"{head}{vp}" if q == 1 else f"{head}{vp}/{q}"
            chunks.append(sign + body)
        return "".join(chunks)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BinomialPolynomial)
                and self.base == other.base and self.coeffs == other.coeffs)

    def __repr__(self) -> str:
        return f"BinomialPolynomial(base={self.base!r}, coeffs={list(self.coeffs)})"


def q_polynomial(sigma: Partition, tau: Partition, rho: Partition) -> BinomialPolynomial:
    """Coefficient polynomial of C_{rho;n} in C_{sigma;n} * C_{tau;n}.

    All three partitions must be proper; coefficient c_k is the structure
    constant for rho with k unit parts adjoined, k bounded by the support
    inequality.
    """
    for p in (sigma, tau, rho):
        if not p.is_proper():
            raise ValueError(f"partition {p} has unit parts")
    exp = product_expansion(sigma, tau)
    kmax = sigma.size() + tau.size() - rho.size()
    coeffs = [exp.get(rho.pad(rho.size() + k), 0) for k in range(max(kmax + 1, 0))]
    return BinomialPolynomial(rho, coeffs)


def convolve_C_classes(sigma: Partition, tau: Partition, n: int) -> ClassVector:
    """Convolution of conjugacy classes of S_n in the proper-class basis:
    the psi sum of the product expansion, the one to_C_basis runs."""
    _check_int(n, "n", nonnegative=True)
    if not sigma.is_proper() or not tau.is_proper():
        raise ValueError("inputs must be proper partitions")
    if sigma.size() > n or tau.size() > n:
        raise ValueError(f"class empty in S_{n}")
    return _psi(product_expansion(sigma, tau).items(), 1, n)


def to_C_basis(v: ClassVector, n: int) -> ClassVector:
    """Rewrite an A-basis vector over the proper-class basis of Z(Q[S_n])
    through the psi sum that convolve_C_classes also runs.

    A vector truncated below n lacks the terms of sizes up to n that psi
    needs, so its level must be absent or at least n (ValueError
    otherwise); terms with |rho| > n are skipped.
    """
    _check_int(n, "n", nonnegative=True)
    if v.level is not None and v.level < n:
        raise ValueError(f"vector truncated at level {v.level} cannot map into "
                         f"Z(Q[S_{n}]): its level is below n = {n}")
    return _psi(v.nums.items(), v.den, n)


def _psi(terms: Iterable[tuple[Partition, int]], den: int, n: int) -> ClassVector:
    """The psi image in Z(Q[S_n]) of sum (c/den) A_rho over the (rho, c)
    pairs, c integers: each rho with |rho| <= n adds c C(n - |rho| + m_1,
    m_1) to C_{rho stripped}, as psi_image states.  Summed in integers
    over den and keyed by the stripped parts tuple, a prefix of canonical
    parts; one trusted Partition is built per nonzero output term."""
    out: dict[tuple[int, ...], int] = {}
    for rho, c in terms:
        parts = rho.parts
        r = sum(parts)
        if r > n:
            continue
        m1 = parts.count(1)
        bar = parts[:len(parts) - m1]
        out[bar] = out.get(bar, 0) + c * comb(n - r + m1, m1)
    return ClassVector._of({Partition._of(bar): c for bar, c in out.items() if c}, den, n)
