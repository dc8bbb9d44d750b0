"""The semigroup of fillings: rows of distinct integers read as cycles.

A filling of shape lambda is a Young diagram of that shape whose boxes
hold distinct positive integers; its rows, read left to right, are the
cycles of a partial permutation.  Convolution reads the union of the
supports in a fixed order and re-emits the cycles of the product, which
realizes the product of partial permutations with enough extra rigidity
to count the rescaled structure constants by direct enumeration.

A filling is held as its tuple of row tuples.  Its partial permutation is
the image dict {x: next x in its row} that ``partial_perm._images`` reads
off the rows, and ``partial_perm._cycles`` walks such a dict back into
rows; convolution and the enumeration of filling pairs compose and invert
these dicts directly, and build a ``PartialPermutation`` only when asked
for one.  The canonical filling of rho has the cycles of
``canonical_rep(rho)`` as its rows.
Fillings made here from rows that are valid by construction skip the
validation that ``Filling(rows)`` applies to outside input.

``enumerate_F`` builds the pairs (S, T) whose convolution is the
canonical filling of rho, and convolves none of them: every pair it builds
meets that condition by construction.  Its naive twin, enumerate_F_naive
in tests/oracles.py, convolves every pair it counts.

- The product.  Once S is fixed (S(x) = x off its support), T is S^-1 rho
  on the points that S^-1 rho moves, plus fixed points: the points of
  {1..r} off S and a choice of S's points that S^-1 rho fixes.  So
  S T = rho on {1..r}, and the supports cover {1..r}.  T has shape tau
  only if S^-1 rho moves exactly |tau| - m_1(tau) points, that is, only if
  S agrees with rho on exactly the other points.
- The rows.  Convolution starts each product cycle at the first of its
  points it reads and keeps equal-length cycles in the order it first
  reads them; the canonical filling starts each row at its smallest point
  and puts equal-length rows in the order of those points.  So the rows
  come out as the target's exactly when every point x is read after
  before[x]: the first point of x's row or, for a first point, the first
  point of the previous row of rho of the same length.  S's points keep
  this reading rule as the walk places them, and T's points off S, read
  after all of S, are checked against it.

The walk places S's points in reading order and cuts a branch as soon as
the reading rule fails or the count of agreements with rho can no longer
come out right; both tests depend on S and rho alone and drop only S with
no T.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations, product
from typing import Iterable, Iterator

from .partial_perm import PartialPermutation, _canonical_cycles, _cycles, _images
from .partitions import Partition

# the default of max(|sigma|, |tau|) for the fillings-count subcommand and
# the fillings suite; enumerate_F itself takes any size
FILLINGS_DEFAULT_MAX = 4


class Filling:
    """An ordered list of rows with weakly decreasing lengths.

    Equality is ordered-row equality: two fillings with the same rows in a
    different order of equal-length rows are different fillings.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rs = tuple(tuple(row) for row in rows)
        for i, row in enumerate(rs):
            if not row:
                raise ValueError("rows must be nonempty")
            if i and len(rs[i - 1]) < len(row):
                raise ValueError("row lengths must be weakly decreasing")
        # the entries follow the point rule of the cycles the rows are read as
        PartialPermutation.from_cycles(rs)
        self.rows = rs

    @classmethod
    def _of(cls, rows: tuple[tuple[int, ...], ...]) -> "Filling":
        """A filling of rows already known to be valid, unchecked."""
        f = object.__new__(cls)
        f.rows = rows
        return f

    @property
    def support(self) -> frozenset[int]:
        return frozenset(x for row in self.rows for x in row)

    def reading_order(self) -> list[int]:
        return [x for row in self.rows for x in row]

    def to_partial_perm(self) -> PartialPermutation:
        """The partial permutation of the filling, its shape the type.

        Each row (r1,...,rk) becomes the cycle r1 -> r2 -> ... -> rk -> r1."""
        return PartialPermutation(_images(self.rows))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Filling) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __str__(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.rows)

    def __repr__(self) -> str:
        return f"Filling({[list(r) for r in self.rows]!r})"

    @classmethod
    def from_string(cls, text: str) -> "Filling":
        """Parse the "3,4,5,6,9;2,1,7" form; empty string is the empty filling."""
        text = text.strip()
        if not text:
            return cls(())
        try:
            rows = [[int(t) for t in row.split(",")] for row in text.split(";")]
        except ValueError as exc:
            raise ValueError(f"malformed filling string {text!r}") from exc
        return cls(rows)


def convolve(s: Filling, t: Filling) -> Filling:
    """Convolution S*T: read supports in order, emit product cycles, resort.

    The reading order is the entries of S row by row left to right, then
    the unseen entries of T in the same fashion.  Each new row is the
    cycle of the product permutation (T acting first) through the first
    unused element, starting there; finally rows are reordered by
    decreasing length, stably.
    """
    s_img, t_img = _images(s.rows), _images(t.rows)
    prod = {x: s_img.get(y, y) for x, y in t_img.items()}
    for x, y in s_img.items():
        prod.setdefault(x, y)
    rows = _cycles(prod, dict.fromkeys(s.reading_order() + t.reading_order()))
    rows.sort(key=len, reverse=True)
    return Filling._of(tuple(rows))


def canonical_filling(rho: Partition) -> Filling:
    """Row i holds consecutive integers continuing from row i-1."""
    return Filling._of(_canonical_cycles(rho))


def _row_spans(shape: Partition) -> list[tuple[int, int]]:
    """The (start, end) slice of each row of the shape in a reading order."""
    cuts = list(accumulate(shape.parts, initial=0))
    return list(zip(cuts, cuts[1:]))


def _fillings_of_cycles(cycles: list[tuple[int, ...]]) -> Iterator[Filling]:
    """Every placement of the cycles as rows, longest first: equal-length
    cycles permuted among their rows, each row started at any of its points.
    Cycles of one length keep their given order in the first placement."""
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for cyc in cycles:
        by_len.setdefault(len(cyc), []).append(cyc)
    groups = [[tuple(c[i:] + c[:i] for c, i in zip(order, starts))
               for order in permutations(group)
               for starts in product(range(ln), repeat=len(group))]
              for ln, group in sorted(by_len.items(), reverse=True)]
    for choice in product(*groups):
        yield Filling._of(sum(choice, ()))


def enumerate_F(sigma: Partition, tau: Partition,
                rho: Partition) -> list[tuple[Filling, Filling]]:
    """All pairs (S, T) of shapes (sigma, tau) whose convolution is the
    canonical filling of rho, built as the module docstring argues, so
    that none is convolved.  There are no pairs unless
    max(|sigma|, |tau|) <= |rho| <= |sigma| + |tau|.  Any sizes are
    enumerated; the cost grows with the S-fillings of sigma on {1..|rho|}.
    """
    r = rho.size()
    if not max(sigma.size(), tau.size()) <= r <= sigma.size() + tau.size():
        return []
    target = canonical_filling(rho)
    rho_img = _images(target.rows)
    core_type = tau.strip_ones().parts
    before = _reading_rule(target)
    spans = _row_spans(sigma)
    out: list[tuple[Filling, Filling]] = []
    for arrangement in _s_arrangements(sigma, rho_img, before, sum(core_type)):
        s = Filling._of(tuple(arrangement[a:b] for a, b in spans))
        s_inv = {y: x for x, y in _images(s.rows).items()}
        cycles = _cycles({x: s_inv.get(y, y) for x, y in rho_img.items()},
                         range(1, r + 1))
        core = [c for c in cycles if len(c) > 1]
        fixed = [c[0] for c in cycles if len(c) == 1]
        # T covers the moved points and the points off S; the rest of its
        # support is `need` fixed points chosen inside S
        free = [x for x in fixed if x not in s_inv]
        need = tau.size() - (r - len(fixed)) - len(free)
        if tuple(sorted(map(len, core), reverse=True)) != core_type or need < 0:
            continue
        for extra in combinations([x for x in fixed if x in s_inv], need):
            ones = [(x,) for x in sorted(free + list(extra))]
            for t in _fillings_of_cycles(core + ones):
                if _reads_in_order(t.reading_order(), before, s_inv):
                    out.append((s, t))
    return out


def _reading_rule(target: Filling) -> list[int]:
    """before[x] of the module docstring's reading rule for the target,
    0 where no point must come first."""
    before = [0] * (len(target.support) + 1)
    last_head: dict[int, int] = {}
    for row in target.rows:
        before[row[0]] = last_head.get(len(row), 0)
        last_head[len(row)] = row[0]
        for x in row[1:]:
            before[x] = row[0]
    return before


def _reads_in_order(order: Iterable[int], before: list[int], read: Iterable[int]) -> bool:
    """Whether reading `order` after the points in `read` reads before[x]
    ahead of each x not read yet (0: none)."""
    seen = {0, *read}
    for x in order:
        if x not in seen:
            if before[x] not in seen:
                return False
            seen.add(x)
    return True


def _s_arrangements(sigma: Partition, rho_img: dict[int, int], before: list[int],
                    moved: int) -> Iterator[tuple[int, ...]]:
    """The reading orders of the S-fillings of shape sigma on {1..r} that
    keep the module docstring's reading rule and agree with rho on exactly
    r - moved points: each combination of {1..r}, then each permutation
    of it, in the order of itertools' combinations and permutations.

    A combination must hold before[x] for each x in it, and the fixed
    points of rho off it count as agreements.  Permutations are walked
    depth first in increasing point order, placing a point only once its
    before[x] is read.  The edge x -> next in S's row is decided when the
    next point is placed, and the row's last -> first edge when the row
    closes; a branch is cut once its agreements pass the target or cannot
    reach it with the edges still undecided."""
    size, r = sigma.size(), len(before) - 1
    spans = _row_spans(sigma)
    # head[i]: where position i's row starts; open_after[i]: the edges
    # still undecided once position i is placed
    head = [a for a, b in spans for _ in range(a, b)]
    closes = [i == b - 1 for a, b in spans for i in range(a, b)]
    open_after = [size - i - c for i, c in enumerate(closes)]
    rho_fixed = {x for x in range(1, r + 1) if rho_img[x] == x}
    arrangement = [0] * size
    read = [False] * (r + 1)
    read[0] = True
    found: list[tuple[int, ...]] = []

    def place(i: int, hits: int, left: list[int], want: int) -> None:
        if i == size:
            found.append(tuple(arrangement))
            return
        for j, x in enumerate(left):
            if not read[before[x]]:
                continue
            arrangement[i] = x
            h = hits
            if i != head[i] and rho_img[arrangement[i - 1]] == x:
                h += 1
            if closes[i] and rho_img[x] == arrangement[head[i]]:
                h += 1
            if h > want or h + open_after[i] < want:
                continue
            read[x] = True
            place(i + 1, h, left[:j] + left[j + 1:], want)
            read[x] = False

    for chosen in combinations(range(1, r + 1), size):
        inside = {0, *chosen}
        if any(before[x] not in inside for x in chosen):
            continue
        want = r - moved - len(rho_fixed - inside)
        if not 0 <= want <= size:
            continue
        place(0, 0, list(chosen), want)
        yield from found
        found.clear()
