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

Columns hold half the shapes.  The involution omega gives
chi^{lam'}_rho = eps_rho chi^lam_rho, eps_rho = (-1)^(|rho| - l(rho))
(Macdonald, Symmetric Functions and Hall Polynomials, ch. I), so a column
needs one shape of each conjugate pair.  The representatives are the lam
that come no later than lam' in canonical order, the self-conjugate ones
included; a column lists chi^lam_rho over them in canonical order, and
every reader of a conjugate lam' takes its representative's entry times
eps_rho.  The structure-constant route in class_algebra reads the half
columns as they are, weighing each conjugate pair twice (its docstring
says why the sign drops out there).

Five caches, each read as follows:

- per size, _positions(m): the representatives' bead masks in canonical
  order, and every shape's mask mapped to its position, h for the
  representative at half index h and H + h for its conjugate, H the
  number of representatives.  The conjugate's mask comes from the mask
  itself, reversed and complemented within its lam_1 + l(lam) places.
  _strips walks the representatives and looks up each strip removal's
  result; _shape looks a shape up.
- per size and strip size, _strips(m, k): for each representative lam
  of S_m in canonical order, the run of places that lam minus each of
  its size-k border strips takes in the column of S_(m-k) taken four
  times: as is, times eps, negated and negated times eps.  A strip
  landing on a conjugate, at position H + h, reads the second quarter,
  and one of odd height reads the negated half, so each strip is one
  index with its sign.  The runs are one flat array('i') with the
  offsets of each run, built once by the bead-mask loop; every column
  of size m and first part k reads the same table, CharacterTable's
  own columns included.
- per cycle type, _column(rho): chi^lam_rho over the representatives lam
  of S_|rho|, a Murnaghan-Nakayama step from the cached column of rho
  minus its first part, with no loop over shapes: that column taken
  four times is read along the flat array of _strips(|rho|, rho_1),
  and each entry is the difference of two prefix sums at its run's
  offsets.  Single reads, the shifted evaluations, the s* cache and the
  structure-constant route in class_algebra all read it.  CharacterTable
  builds its own half columns from the cached suffix columns and does
  not cache them, so a dropped table leaves only its suffix columns and
  the strip tables behind; it gets the row of each conjugate lam' as eps
  times the row of lam.
- per shape, _shape(lam): lam's half index, its flip (1 if lam comes
  after lam' in canonical order, else 0) and dim lam = chi^lam_{1^|lam|},
  read off the cached column of 1^|lam| (eps is 1 there).  character, p#,
  s*, F and the s* cache read a shape only through it, so a repeated
  shape costs one lookup; a read at cycle type rho negates the entry
  when (|rho| - l(rho)) & flip is 1.
- the s* cache, _s_star_weights(mu): the classes rho with chi^mu_rho != 0
  and their weights chi^mu_rho r!/z_rho, r = |mu|, listed twice: as they
  are, for a representative lam, and times eps_rho, for a conjugate one.
  So an s* value picks one list by lam's flip and is one column read per
  nonzero term.  s* alone reads it.

The shifted evaluations run on integers and build one Fraction per
answer.  p# and F share one helper for the integer (n)_r chi^lam_{rho
1^(n-r)}, with (n)_r from math.perm; F sums the class vector's integer
numerators over its one denominator.  s* keeps its own orthogonality sum,
not routed through F, so F(x_mu) = s*_mu stays an independent check.

Everything is exact: characters are integers, evaluations are Fractions.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import factorial, perm
from operator import itemgetter, mul, neg, sub

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


_SWAP = str.maketrans("01", "10")


def _conjugate(mask: int) -> int:
    """The bead mask of lam' from that of lam: its lam_1 + l(lam) places
    (bit 0 clear, the top bit set) reversed and complemented."""
    return int(bin(mask)[:1:-1].translate(_SWAP), 2) if mask else 0


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character value chi^lam on the class of cycle type rho."""
    n = lam.size()
    if n != rho.size():
        raise ValueError(f"|{lam}| != |{rho}|")
    at, flip, _ = _shape(lam.parts)
    chi = _column(rho.parts)[at]
    return -chi if (n - len(rho.parts)) & flip else chi


@cache
def _positions(m: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """The bead masks of the representatives of S_m (lam at or before lam'
    in canonical order), in canonical order, and every shape's mask mapped
    to its position: h for the representative at half index h, H + h for
    its conjugate, H the number of representatives.  Iterating the dict
    yields every mask in canonical order."""
    masks = [_beads(lam.parts) for lam in enumerate_partitions(m)]
    half: dict[int, int] = {}
    for mask in masks:
        # lam' came earlier exactly when it is a representative already
        if _conjugate(mask) not in half:
            half[mask] = len(half)
    count = len(half)
    return tuple(half), {mask: half[mask] if mask in half else count + half[_conjugate(mask)]
                         for mask in masks}


@cache
def _shape(lam: tuple[int, ...]) -> tuple[int, int, int]:
    """(half index of lam, flip, dim lam), n = |lam|: flip is 1 when lam is
    the conjugate of the representative at that index, else 0; dim lam =
    chi^lam_{1^n} from the cached column of 1^n, where eps is 1."""
    n = sum(lam)
    reps, positions = _positions(n)
    flip, at = divmod(positions[_beads(lam)], len(reps))
    return at, flip, _column((1,) * n)[at]


@cache
def _strips(m: int, k: int) -> tuple[array, array]:
    """(flat, ends), the size-k border strips of the representatives lam
    of S_m for the column step: flat lists, for each lam in canonical
    order, where lam minus each strip sits in the column of S_(m-k) taken
    four times, as is, times eps, negated, and negated times eps.  A
    strip landing on a shape at position p of _positions(m - k) points at
    p, or at p + 2H, H the number of representatives of S_(m-k), when its
    height is odd; lam's run is flat[ends[i]:ends[i + 1]] for its half
    index i."""
    reps, at = _positions(m - k)
    odd = 2 * len(reps)
    between = (1 << (k - 1)) - 1
    move = (1 << k) | 1
    flat, ends = array("i"), array("i", [0])
    for mask in _positions(m)[0]:
        targets = (mask >> k) & ~mask
        while targets:
            low = targets & -targets
            targets ^= low
            t = low.bit_length() - 1
            new = mask ^ (move << t)
            if not t:
                # beads at 0, 1, ... stand for zero parts: drop them
                new >>= ((new + 1) & ~new).bit_length() - 1
            flat.append(at[new] + odd * (((mask >> (t + 1)) & between).bit_count() & 1))
        ends.append(len(flat))
    return flat, ends


@cache
def _column(parts: tuple[int, ...]) -> tuple[int, ...]:
    """chi^lam_parts over the representatives lam of S_|parts|, k =
    parts[0]: for each lam the sum over its size-k border strips of
    (-1)^height chi^(lam minus strip), read from the cached column of
    parts[1:] taken four times in the order of _strips(|parts|, k), so
    each entry is a difference of two prefix sums over its run."""
    if not parts:
        return (1,)
    rest = parts[1:]
    below = _column(rest)
    minus = tuple(map(neg, below))
    if (sum(rest) - len(rest)) & 1:
        quad = below + minus + minus + below
    else:
        quad = below + below + minus + minus
    flat, ends = _strips(sum(parts), parts[0])
    # the leading quad[0] keeps the getter's result a tuple when there is
    # one strip; it adds the same constant to every prefix sum
    sums = list(accumulate(itemgetter(0, *flat)(quad)))
    edges = itemgetter(*ends)(sums)
    return tuple(map(sub, edges[1:], edges))


class CharacterTable:
    """The full character table of S_n in the canonical partition order:
    matrix[i][j] = chi^lam_rho for lam = labels[i] and rho = labels[j].

    Its half columns are built past the _column cache, each from a cached
    suffix column and the cached strip table of (n, rho_1)."""

    __slots__ = ("n", "labels", "matrix")

    def __init__(self, n: int) -> None:
        self.n = n
        self.labels = enumerate_partitions(n)
        # nothing else reads a table's own columns, so they are built past the
        # cache; only their suffix columns, shared with single reads, are kept
        build = _column.__wrapped__
        half = [list(row) for row in zip(*(build(rho.parts) for rho in self.labels))]
        # the row of a conjugate lam' is eps times the row of its representative
        eps = [-1 if (n - len(rho.parts)) & 1 else 1 for rho in self.labels]
        self.matrix = [half[at] if at < len(half) else list(map(mul, eps, half[at - len(half)]))
                       for at in _positions(n)[1].values()]


def _shifted(parts: tuple[int, ...], n: int, at: int, flip: int) -> int:
    """(n)_r chi^lam_{parts 1^(n-r)} for r = |parts| <= n, lam at half
    index at with its flip among the shapes of S_n: the integer numerator
    of p#_parts(lam) over dim lam.  eps of the padded class is eps_parts."""
    r = sum(parts)
    x = perm(n, r) * _column(parts + (1,) * (n - r))[at]
    return -x if (r - len(parts)) & flip else x


def p_sharp(rho: Partition, lam: Partition) -> Fraction:
    """Shifted power sum evaluated at lam: (n falling r) chi^lam_{rho padded} / dim lam."""
    n = lam.size()
    if rho.size() > n:
        return Fraction(0)
    at, flip, dim = _shape(lam.parts)
    return Fraction(_shifted(rho.parts, n, at, flip), dim)


@cache
def _s_star_weights(mu: tuple[int, ...]) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """The s* cache: (rho, chi^mu_rho r!/z_rho) for the classes rho of S_r,
    r = |mu|, in canonical order, where chi^mu_rho != 0; then the same
    list with each weight times eps_rho, the one a conjugate lam reads."""
    r = sum(mu)
    (mu_at, flip, _), r_fact = _shape(mu), factorial(r)
    plain, signed = [], []
    for rho in enumerate_partitions(r):
        odd = (r - len(rho.parts)) & 1
        chi = _column(rho.parts)[mu_at]
        if chi:
            weight = (-chi if odd & flip else chi) * (r_fact // rho.centralizer_size())
            plain.append((rho.parts, weight))
            signed.append((rho.parts, -weight if odd else weight))
    return tuple(plain), tuple(signed)


def s_star(mu: Partition, lam: Partition) -> Fraction:
    """Shifted Schur value, inverted from p# by character orthogonality:
    (n)_r / (r! dim lam) times sum_rho chi^mu_rho (r!/z_rho) chi^lam_{rho 1^(n-r)}.
    The weights chi^mu_rho r!/z_rho of the nonzero terms come from the s*
    cache, times eps_rho for a conjugate lam, so each term is one column
    read and the sum is one integer."""
    r = mu.size()
    n = lam.size()
    if r > n:
        return Fraction(0)
    lam_at, flip, dim = _shape(lam.parts)
    ones = (1,) * (n - r)
    total = 0
    for parts, weight in _s_star_weights(mu.parts)[flip]:
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
    (at, flip, dim), n_fact = _shape(lam.parts), factorial(n)
    total = 0
    for rho, c in v.nums.items():
        if rho.size() <= n:
            total += c * _shifted(rho.parts, n, at, flip) * (n_fact // rho.centralizer_size())
    return Fraction(total, v.den * n_fact * dim)


def x_mu(mu: Partition) -> ClassVector:
    """The class vector whose F-image is s*_mu.

    Grouping the character-weighted sum over partial permutations of
    degree |mu| by cycle type gives coefficient chi^mu_rho on A_rho.
    """
    return ClassVector._of({rho: character(mu, rho) for rho in enumerate_partitions(mu.size())},
                           1, None)
