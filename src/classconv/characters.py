"""Symmetric-group characters and shifted-symmetric evaluations.

Characters come from the Murnaghan-Nakayama recursion over border-strip
removals.  Each shape is encoded as a bitmask of its beta numbers, where a
strip removal is one bead moved down to an empty position.  On top of the
characters sit the shifted power sums p#, the shifted Schur values s*
obtained from p# by character orthogonality, the evaluation isomorphism F,
and the class vectors x_mu whose F-images are the s*.  The hook products
that the structure-constant route reads, and the classes that each of its
levels filters by (deg3, m_1) in canonical order, are class_algebra's, in
its own level table; nothing here builds them.

Four caches, each read as follows:

- per size, _positions(m): the bead mask of each shape of S_m mapped to
  its canonical position (labels come from enumerate_partitions in the
  same order).  _column walks it to build a column and looks up each
  strip removal's result in it; _shape looks a shape up in it.
- per cycle type, _column(rho): chi^lam_rho over every shape lam of
  S_|rho|, built in one loop over the shapes, a Murnaghan-Nakayama step
  each, from the cached column of rho minus its first part.  Single
  reads, the shifted evaluations, the s* cache and the structure-constant
  route in class_algebra all read it.  CharacterTable builds its own
  columns from the cached suffix columns and does not cache them, so a
  dropped table leaves only its suffix columns behind.
- per shape, _shape(lam): lam's position among the shapes of S_|lam| and
  dim lam = chi^lam_{1^|lam|}, read off the cached column of 1^|lam|,
  whose suffixes every table and every padded class already builds.
  character, p#, s*, F and the s* cache read a shape only through it, so
  a repeated shape costs one lookup.
- the s* cache, _s_star_weights(mu): the classes rho with chi^mu_rho != 0
  and their weights chi^mu_rho r!/z_rho, r = |mu|, so an s* value is one
  column read per nonzero term.  s* alone reads it.

dimension() uses the hook length formula, uncached; no production path
runs it, and the tests compare against it.

The shifted evaluations run on integers and build one Fraction per
answer.  p# and F share one helper for the integer (n)_r chi^lam_{rho
1^(n-r)}, with (n)_r from math.perm; F sums the class vector's integer
numerators over its one denominator.  s* keeps its own orthogonality sum,
not routed through F, so F(x_mu) = s*_mu stays an independent check.

Everything is exact: characters are integers, evaluations are Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, perm

from .class_vector import ClassVector
from .partitions import Partition, enumerate_partitions


# Each shape is held as its beta set in an int: bit lam_i + len(lam) - 1 - i
# is set for every part, so the parts are positive exactly when bit 0 is
# clear.  A border strip of size k is a bead moved from b down to an empty
# b - k, and its height is the number of beads strictly between.
def _beads(lam: tuple[int, ...]) -> int:
    ell = len(lam)
    mask = 0
    for i, part in enumerate(lam):
        mask |= 1 << (part + ell - 1 - i)
    return mask


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam on the class of cycle type rho."""
    if lam.size() != rho.size():
        raise ValueError(f"|{lam}| != |{rho}|")
    return _column(rho.parts)[_shape(lam.parts)[0]]


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook lengths)."""
    parts = lam.parts
    conj = [0] * (parts[0] if parts else 0)
    for part in parts:
        for j in range(part):
            conj[j] += 1
    d = factorial(lam.size())
    for i, part in enumerate(parts):
        for j in range(part):
            d //= part - j + conj[j] - i - 1
    return d


@cache
def _positions(m: int) -> dict[int, int]:
    """The bead mask of each shape of S_m mapped to its canonical position;
    iterating the dict yields the masks in canonical order."""
    return {_beads(lam.parts): i for i, lam in enumerate(enumerate_partitions(m))}


@cache
def _shape(lam: tuple[int, ...]) -> tuple[int, int]:
    """(position of lam among the shapes of S_n, dim lam), n = |lam|:
    the position from _positions(n), dim lam = chi^lam_{1^n} from the
    cached column of 1^n."""
    n = sum(lam)
    at = _positions(n)[_beads(lam)]
    return at, _column((1,) * n)[at]


@cache
def _column(parts: tuple[int, ...]) -> tuple[int, ...]:
    """chi^lam_parts over the shapes lam of S_|parts|, k = parts[0]:
    for each lam the sum over its size-k border strips of (-1)^height
    chi^(lam minus strip), read from the cached column of parts[1:]."""
    if not parts:
        return (1,)
    k, rest = parts[0], parts[1:]
    below, at = _column(rest), _positions(sum(rest))
    between = (1 << (k - 1)) - 1
    move = (1 << k) | 1
    out = []
    for mask in _positions(sum(parts)):
        targets = (mask >> k) & ~mask
        total = 0
        while targets:
            low = targets & -targets
            targets ^= low
            t = low.bit_length() - 1
            new = mask ^ (move << t)
            if not t:
                # beads at 0, 1, ... stand for zero parts: drop them
                new >>= ((new + 1) & ~new).bit_length() - 1
            if ((mask >> (t + 1)) & between).bit_count() & 1:
                total -= below[at[new]]
            else:
                total += below[at[new]]
        out.append(total)
    return tuple(out)


class CharacterTable:
    """The full character table of S_n in the canonical partition order."""

    __slots__ = ("n", "labels", "matrix", "_index")

    def __init__(self, n: int) -> None:
        self.n = n
        self.labels = enumerate_partitions(n)
        # nothing else reads a table's own columns, so they are built past the
        # cache; only their suffix columns, shared with single reads, are kept
        build = _column.__wrapped__
        self.matrix = [list(row) for row in zip(*(build(rho.parts) for rho in self.labels))]
        self._index = {lam: i for i, lam in enumerate(self.labels)}

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.matrix[self._index[lam]][self._index[rho]]

    def dimensions(self) -> list[int]:
        one_col = self._index[Partition((1,) * self.n)]
        return [row[one_col] for row in self.matrix]


def _shifted(parts: tuple[int, ...], n: int, at: int) -> int:
    """(n)_r chi^lam_{parts 1^(n-r)} for r = |parts| <= n, lam at position at
    among the shapes of S_n: the integer numerator of p#_parts(lam) over
    dim lam."""
    r = sum(parts)
    return perm(n, r) * _column(parts + (1,) * (n - r))[at]


def p_sharp(rho: Partition, lam: Partition) -> Fraction:
    """Shifted power sum evaluated at lam: (n falling r) chi^lam_{rho padded} / dim lam."""
    n = lam.size()
    if rho.size() > n:
        return Fraction(0)
    at, dim = _shape(lam.parts)
    return Fraction(_shifted(rho.parts, n, at), dim)


@cache
def _s_star_weights(mu: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The s* cache: (rho, chi^mu_rho r!/z_rho) for the classes rho of S_r,
    r = |mu|, in canonical order, where chi^mu_rho != 0."""
    r = sum(mu)
    mu_at, r_fact = _shape(mu)[0], factorial(r)
    weights = []
    for rho in enumerate_partitions(r):
        chi = _column(rho.parts)[mu_at]
        if chi:
            weights.append((rho.parts, chi * (r_fact // rho.centralizer_size())))
    return tuple(weights)


def s_star(mu: Partition, lam: Partition) -> Fraction:
    """Shifted Schur value, inverted from p# by character orthogonality:
    (n)_r / (r! dim lam) times sum_rho chi^mu_rho (r!/z_rho) chi^lam_{rho 1^(n-r)}.
    The weights chi^mu_rho r!/z_rho of the nonzero terms come from the s*
    cache, so each term is one column read and the sum is one integer."""
    r = mu.size()
    n = lam.size()
    if r > n:
        return Fraction(0)
    lam_at, dim = _shape(lam.parts)
    ones = (1,) * (n - r)
    total = 0
    for parts, weight in _s_star_weights(mu.parts):
        total += weight * _column(parts + ones)[lam_at]
    return Fraction(perm(n, r) * total, factorial(r) * dim)


def F_eval(v: ClassVector, lam: Partition) -> Fraction:
    """The evaluation isomorphism: A_rho maps to p#_rho / z_rho.

    Summed as one integer over v.den n! dim lam: a numerator c on A_rho
    with |rho| <= n adds c (n)_r chi^lam_{rho 1^(n-r)} (n!/z_rho), and
    terms with |rho| > n are skipped (p# vanishes there).  A vector
    truncated below n lives in A_level, where F is defined only at
    |lam| <= level, so such a vector raises ValueError."""
    n = lam.size()
    if v.level is not None and v.level < n:
        raise ValueError(f"vector truncated at level {v.level} cannot be evaluated "
                         f"at {lam}: its level is below |lam| = {n}")
    (at, dim), n_fact = _shape(lam.parts), factorial(n)
    total = 0
    for rho, c in v.nums.items():
        if rho.size() <= n:
            total += c * _shifted(rho.parts, n, at) * (n_fact // rho.centralizer_size())
    return Fraction(total, v.den * n_fact * dim)


def x_mu(mu: Partition) -> ClassVector:
    """The class vector whose F-image is s*_mu.

    Grouping the character-weighted sum over partial permutations of
    degree |mu| by cycle type gives coefficient chi^mu_rho on A_rho.
    """
    return ClassVector._of({rho: character(mu, rho) for rho in enumerate_partitions(mu.size())},
                           1, None)
