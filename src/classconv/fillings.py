"""The semigroup of fillings: rows of distinct integers read as cycles.

A filling of shape lambda is a Young diagram of that shape whose boxes
hold distinct positive integers; its rows, read left to right, are the
cycles of a partial permutation.  Convolution reads the union of the
supports in a fixed order and re-emits the cycles of the product, which
realizes the product of partial permutations with enough extra rigidity
to count the rescaled structure constants by direct enumeration.
"""

from __future__ import annotations

from itertools import combinations, permutations as _itertools_perms
from typing import Iterable, Iterator

from .partial_perm import PartialPermutation, product
from .partitions import Partition

FILLINGS_DEFAULT_MAX = 4


class Filling:
    """An ordered list of rows with weakly decreasing lengths.

    Equality is ordered-row equality: two fillings with the same rows in a
    different order of equal-length rows are different fillings.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[int]]) -> None:
        rs = tuple(tuple(int(x) for x in row) for row in rows)
        seen: set[int] = set()
        for i, row in enumerate(rs):
            if not row:
                raise ValueError("rows must be nonempty")
            if i and len(rs[i - 1]) < len(row):
                raise ValueError("row lengths must be weakly decreasing")
            for x in row:
                if x < 1:
                    raise ValueError(f"entries must be positive integers, got {x}")
                if x in seen:
                    raise ValueError(f"entry {x} repeated")
                seen.add(x)
        self.rows = rs

    @property
    def support(self) -> frozenset[int]:
        return frozenset(x for row in self.rows for x in row)

    @property
    def shape(self) -> Partition:
        return Partition(len(row) for row in self.rows)

    def reading_order(self) -> list[int]:
        return [x for row in self.rows for x in row]

    def to_partial_perm(self) -> PartialPermutation:
        """Each row (r1,...,rk) becomes the cycle r1 -> r2 -> ... -> rk -> r1."""
        m: dict[int, int] = {}
        for row in self.rows:
            for i, x in enumerate(row):
                m[x] = row[(i + 1) % len(row)]
        return PartialPermutation(m)

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
    order: list[int] = []
    seen: set[int] = set()
    for x in s.reading_order() + t.reading_order():
        if x not in seen:
            order.append(x)
            seen.add(x)
    prod = product(s.to_partial_perm(), t.to_partial_perm())
    used: set[int] = set()
    rows: list[tuple[int, ...]] = []
    for start in order:
        if start in used:
            continue
        cyc = [start]
        x = prod(start)
        while x != start:
            cyc.append(x)
            x = prod(x)
        used.update(cyc)
        rows.append(tuple(cyc))
    rows.sort(key=len, reverse=True)
    return Filling(rows)


def canonical_filling(rho: Partition) -> Filling:
    """Row i holds consecutive integers continuing from row i-1."""
    rows = []
    start = 1
    for part in rho:
        rows.append(tuple(range(start, start + part)))
        start += part
    return Filling(rows)


def fillings_of_shape(shape: Partition, points: Iterable[int]) -> Iterator[Filling]:
    """All fillings of the given shape with support inside the point set."""
    pts = sorted(points)
    k = shape.size()
    lens = shape.parts
    for chosen in combinations(pts, k):
        for arrangement in _itertools_perms(chosen):
            rows = []
            i = 0
            for ln in lens:
                rows.append(arrangement[i:i + ln])
                i += ln
            yield Filling(rows)


def fillings_of_perm(shape: Partition, pp: PartialPermutation) -> Iterator[Filling]:
    """All fillings of the given shape that map to the partial permutation.

    Cycles of matching length may occupy any of the equal-length rows and
    each row may start at any point of its cycle, giving the centralizer
    order z_shape many fillings in total.
    """
    if pp.cycle_type() != shape:
        return
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for cyc in pp.cycles():
        by_len.setdefault(len(cyc), []).append(cyc)
    row_slots: dict[int, list[int]] = {}
    for idx, ln in enumerate(shape.parts):
        row_slots.setdefault(ln, []).append(idx)

    def rotations(cyc: tuple[int, ...]) -> list[tuple[int, ...]]:
        return [cyc[i:] + cyc[:i] for i in range(len(cyc))]

    def assign(lengths: list[int], rows: list) -> Iterator[list]:
        if not lengths:
            yield rows
            return
        ln = lengths[0]
        slots = row_slots[ln]
        for perm in _itertools_perms(by_len[ln]):
            choices: list[list[tuple[int, ...]]] = [rotations(c) for c in perm]

            def fill(i: int) -> Iterator[list]:
                if i == len(slots):
                    yield from assign(lengths[1:], rows)
                    return
                for rot in choices[i]:
                    rows[slots[i]] = rot
                    yield from fill(i + 1)
                rows[slots[i]] = None

            yield from fill(0)

    lengths = sorted(by_len, reverse=True)
    base: list = [None] * shape.length()
    for rows in assign(lengths, base):
        yield Filling(list(rows))


def enumerate_F(sigma: Partition, tau: Partition, rho: Partition,
                max_size: int = FILLINGS_DEFAULT_MAX) -> list[tuple[Filling, Filling]]:
    """All pairs (S, T) of shapes (sigma, tau) whose convolution is the
    canonical filling of rho.

    T is constrained: once S is fixed, the product forces the permutation
    of T on a core support, leaving a binomial choice of extra fixed
    entries and the usual row/rotation freedom.  enumerate_F_naive is the
    independent route that tests compare against.
    """
    if sigma.size() > max_size or tau.size() > max_size:
        raise ValueError(
            f"filling enumeration size exceeds bound {max_size}; raise max_size explicitly")
    r = rho.size()
    target = canonical_filling(rho)
    w_rho = target.to_partial_perm()
    points = frozenset(range(1, r + 1))
    out: list[tuple[Filling, Filling]] = []
    for s in fillings_of_shape(sigma, points):
        ws = s.to_partial_perm()
        ws_inv = ws.inverse()
        forced_map = {x: ws_inv(w_rho(x)) for x in points}
        nonfixed = {x for x, y in forced_map.items() if x != y}
        forced = nonfixed | (points - s.support)
        core_type = Partition(sorted(
            (len(c) for c in PartialPermutation(
                {x: forced_map[x] for x in forced}).cycles() if len(c) > 1),
            reverse=True))
        if core_type != tau.strip_ones() or tau.size() < len(forced):
            continue
        need = tau.size() - len(forced)
        for extra in combinations(sorted(points - forced), need):
            dt = forced | set(extra)
            wt = PartialPermutation({x: forced_map[x] for x in dt})
            for t in fillings_of_perm(tau, wt):
                if convolve(s, t) == target:
                    out.append((s, t))
    return out


def enumerate_F_naive(sigma: Partition, tau: Partition,
                      rho: Partition) -> list[tuple[Filling, Filling]]:
    """Guard route: the pairs of enumerate_F, found by convolving every
    S-filling with every T-filling on {1..|rho|}."""
    r = rho.size()
    target = canonical_filling(rho)
    points = range(1, r + 1)
    t_all = list(fillings_of_shape(tau, points))
    out = []
    for s in fillings_of_shape(sigma, points):
        for t in t_all:
            if convolve(s, t) == target:
                out.append((s, t))
    return out
