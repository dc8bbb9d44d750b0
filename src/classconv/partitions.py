"""Integer partitions and their statistics.

Partitions index everything else in this package: conjugacy classes of
partial permutations, class-algebra basis elements, filling shapes and
character labels.  The canonical enumeration order is reverse-lexicographic,
i.e. (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for size 4; every piece of
sorted output in the package relies on that order being fixed.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, Iterator


class Partition:
    """A weakly decreasing tuple of positive integers; may be empty.

    Immutable and hashable.  The empty partition is a first-class value:
    it is the multiplicative unit of the class algebra and serializes as
    the empty string.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()) -> None:
        p = tuple(parts)
        for i, x in enumerate(p):
            if type(x) is not int:
                raise ValueError(f"partition parts must be integers, got {x!r}")
            if x < 1:
                raise ValueError(f"partition parts must be positive, got {x}")
            if i and p[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {p}")
        self._parts = p

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """Trusted construction: parts must already be a weakly decreasing
        tuple of positive ints, which is not checked."""
        p = object.__new__(cls)
        p._parts = parts
        return p

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    def size(self) -> int:
        """Sum of the parts."""
        return sum(self._parts)

    def length(self) -> int:
        """Number of parts."""
        return len(self._parts)

    def multiplicity(self, k: int) -> int:
        """Number of parts equal to k, for k >= 1."""
        if type(k) is not int or k < 1:
            raise ValueError("part size must be a positive integer")
        return self._parts.count(k)

    def centralizer_size(self) -> int:
        """z = prod_k k^{m_k} m_k!, the centralizer order for this cycle type."""
        z = 1
        i = 0
        p = self._parts
        while i < len(p):
            j = i
            while j < len(p) and p[j] == p[i]:
                j += 1
            m = j - i
            z *= p[i] ** m * factorial(m)
            i = j
        return z

    def pad(self, n: int) -> "Partition":
        """The partition of n obtained by appending parts of size 1."""
        r = self.size()
        if type(n) is not int or n < r:
            raise ValueError(f"cannot pad a partition of {r} to size {n!r}")
        return Partition(self._parts + (1,) * (n - r))

    def strip_ones(self) -> "Partition":
        """The partition with all parts equal to 1 removed."""
        return Partition(x for x in self._parts if x != 1)

    def is_proper(self) -> bool:
        """True when no part equals 1."""
        return not self._parts or self._parts[-1] != 1

    def sort_key(self) -> tuple:
        """Canonical order: ascending size, then reverse-lexicographic."""
        return (self.size(), tuple(-x for x in self._parts))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse the comma-separated text form; empty string is the empty partition."""
        text = text.strip()
        if not text:
            return cls()
        try:
            parts = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"malformed partition string {text!r}") from exc
        return cls(parts)


def _gen_parts(r: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    if r == 0:
        yield ()
        return
    for first in range(min(r, maxpart), 0, -1):
        for rest in _gen_parts(r - first, first):
            yield (first,) + rest


@cache
def _partitions_tuple(r: int) -> tuple[Partition, ...]:
    return tuple(Partition(p) for p in _gen_parts(r, r if r else 1))


def _check_int(value: int, what: str, nonnegative: bool = False) -> None:
    """Raise ValueError unless value is an int, as Partition requires of
    its parts, and, if nonnegative is set, at least 0: a bool would be read
    as 0 or 1 (a cache too keys True as 1), and a float would fail later
    with TypeError."""
    if type(value) is not int or nonnegative and value < 0:
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def _check_size(r: int) -> None:
    """Raise ValueError unless r is an int of at least 0: a negative size
    would otherwise read as no partitions at all."""
    _check_int(r, "partition size")
    if r < 0:
        raise ValueError("cannot partition a negative integer")


def enumerate_partitions(r: int) -> list[Partition]:
    """All partitions of r, reverse-lexicographically, each exactly once."""
    _check_size(r)
    return list(_partitions_tuple(r))


def partitions_up_to(r: int) -> list[Partition]:
    """All partitions of 0, 1, ..., r in canonical order."""
    _check_size(r)
    out: list[Partition] = []
    for k in range(r + 1):
        out.extend(_partitions_tuple(k))
    return out


def partition_count(r: int) -> int:
    """p(r), the number of partitions of r."""
    _check_size(r)
    return len(_partitions_tuple(r))


def _ints(values: Iterable[int], what: str) -> list[int]:
    """The values as a list, each an int: a float, Fraction or bool entry
    raises ValueError instead of being truncated or read as 0 or 1."""
    out = list(values)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"{what} must be integers, got {x!r}")
    return out


EMPTY = Partition()
