"""Partial permutations: pairs (support, bijection of the support onto itself).

The product unites supports and composes the identical extensions, with
the single global convention that the right factor acts first:
(w1 * w2)(x) = w1(w2(x)).  Values are immutable and all operations are
pure, so everything here is safe to use concurrently.

A value is built from an image mapping (``PartialPermutation({1: 3, 3: 1})``),
from cycles (``PartialPermutation.from_cycles``), as the identity of a point
set (``PartialPermutation.identity``) or as the canonical representative of
a class (``canonical_rep``).

The private helpers ``_images`` (cycles to an image dict), ``_cycles``
(an image dict back to cycles) and ``_canonical_cycles`` are the one copy
of these walks; ``fillings`` imports them, and ``verify`` imports
``_cycles``.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations as _itertools_perms
from typing import Iterable, Iterator, Mapping

from .partitions import Partition, _check_int


class PartialPermutation:
    """An arbitrary finite support set together with a bijection of it."""

    __slots__ = ("_map", "_key")

    def __init__(self, mapping: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> None:
        m = dict(mapping)
        for x in (*m, *m.values()):
            _check_int(x, "support point", 1)
        if set(m.values()) != set(m):
            raise ValueError("mapping is not a bijection of its support")
        self._map = m
        self._key = tuple(sorted(m.items()))

    @classmethod
    def identity(cls, points: Iterable[int]) -> "PartialPermutation":
        return cls({x: x for x in points})

    @classmethod
    def from_cycles(cls, cycles: Iterable[Iterable[int]]) -> "PartialPermutation":
        """The partial permutation (d, w) whose cycles are given, d their union.

        A singleton cycle (x,) is a fixed point.  Each point is checked and
        marked as it is read: a point repeated within a cycle is refused like
        one repeated across cycles, and a point that is no int, an unhashable
        one included, raises ValueError."""
        m: dict[int, int] = {}
        for cyc in cycles:
            c = tuple(cyc)
            for x in c:
                _check_int(x, "support point", 1)
                if x in m:
                    raise ValueError(f"point {x} appears more than once")
                m[x] = x
            m.update(_images((c,)))
        return cls(m)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._map)

    def __call__(self, x: int) -> int:
        """The identical extension: image of x, fixing points off the support."""
        return self._map.get(x, x)

    def __mul__(self, other: "PartialPermutation") -> "PartialPermutation":
        return product(self, other)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition of w on the support d, fixed points as
        singletons: the cycles whose lengths make the type.

        Each cycle starts at its smallest element; cycles are sorted by
        smallest element.
        """
        return tuple(_cycles(dict(self._map), sorted(self._map)))

    def cycle_type(self) -> Partition:
        """The type of (d, w): the cycle type of w on d, a partition of |d|."""
        return Partition(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartialPermutation) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"PartialPermutation({self._map!r})"

    def __str__(self) -> str:
        sup = "{" + ",".join(str(x) for x in sorted(self._map)) + "}"
        cyc = "".join("(" + ",".join(str(x) for x in c) + ")" for c in self.cycles())
        return sup + ":" + cyc


def product(a: PartialPermutation, b: PartialPermutation) -> PartialPermutation:
    """(d1 u d2, w1 w2) with the right factor applied first."""
    sup = a.support | b.support
    return PartialPermutation({x: a(b(x)) for x in sup})


def _canonical_cycles(rho: Partition) -> tuple[tuple[int, ...], ...]:
    """The runs 1..rho_1, rho_1+1..rho_1+rho_2, ..., longest first: the
    cycles of canonical_rep and the rows of the canonical filling."""
    cuts = list(accumulate(rho.parts, initial=1))
    return tuple(tuple(range(a, b)) for a, b in zip(cuts, cuts[1:]))


def _images(rows: tuple[tuple[int, ...], ...]) -> dict[int, int]:
    """{x: next x in its row}, each row read as a cycle."""
    return {x: y for row in rows for x, y in zip(row, row[1:] + row[:1])}


def _cycles(images: dict[int, int], order: Iterable[int]) -> list[tuple[int, ...]]:
    """The cycles of a bijection, each started at its first point in the
    order, in that order.  Empties the dict."""
    out = []
    for start in order:
        if start in images:
            cyc = [start]
            x = images.pop(start)
            while x != start:
                cyc.append(x)
                x = images.pop(x)
            out.append(tuple(cyc))
    return out


def canonical_rep(rho: Partition) -> PartialPermutation:
    """The fixed representative on {1..|rho|} with consecutive cycles."""
    return PartialPermutation(_images(_canonical_cycles(rho)))


def permutations_of_type(points: Iterable[int], rho: Partition) -> Iterator[dict[int, int]]:
    """All bijections of `points` with cycle type rho, as point->image dicts.

    The point set must have exactly |rho| elements; each permutation is
    produced exactly once (the smallest unused point anchors each cycle).
    """
    pts = tuple(sorted(points))
    if len(pts) != rho.size():
        raise ValueError("support size does not match the partition")
    mult: dict[int, int] = {}
    for part in rho:
        mult[part] = mult.get(part, 0) + 1

    def gen(remaining: tuple[int, ...], mult: dict[int, int]) -> Iterator[dict[int, int]]:
        if not remaining:
            yield {}
            return
        x = remaining[0]
        rest = remaining[1:]
        for k in list(mult):
            if mult[k] == 0:
                continue
            mult[k] -= 1
            for others in _itertools_perms(rest, k - 1):
                cyc = (x,) + others
                head = {cyc[i]: cyc[(i + 1) % k] for i in range(k)}
                left = tuple(p for p in rest if p not in head)
                for tail in gen(left, mult):
                    tail.update(head)
                    yield tail
            mult[k] += 1

    return gen(pts, mult)


def enumerate_class(rho: Partition, n: int) -> Iterator[PartialPermutation]:
    """All partial permutations in P_n with support size |rho| and type rho:
    the terms of the class sum A_{rho;n}."""
    _check_int(n, "n", 0)
    r = rho.size()
    if r > n:
        return
    for d in combinations(range(1, n + 1), r):
        for m in permutations_of_type(d, rho):
            yield PartialPermutation(m)


def enumerate_semigroup(n: int) -> Iterator[PartialPermutation]:
    """Every element of P_n: all supports, all bijections."""
    _check_int(n, "n", 0)
    for k in range(n + 1):
        for d in combinations(range(1, n + 1), k):
            for images in _itertools_perms(d):
                yield PartialPermutation(dict(zip(d, images)))


def semigroup_size(n: int) -> int:
    """|P_n| = sum_k C(n,k) k!, via the recurrence s_n = n s_{n-1} + 1."""
    _check_int(n, "n", 0)
    s = 1
    for k in range(1, n + 1):
        s = k * s + 1
    return s
