"""Integer partitions and their statistics.

Partitions index everything else in this package: conjugacy classes of
partial permutations, class-algebra basis elements, filling shapes and
character labels.  The canonical enumeration order is reverse-lexicographic,
i.e. (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for size 4; every piece of
sorted output in the package relies on that order being fixed.

A partition is interned: there is one Partition object per parts tuple,
so equality and hashing are the built-in identity ones, and a dict keyed
by partitions never hashes or compares a tuple.  The validating
constructor and the trusted _of both return the object held in one
module-level table, entered through dict.setdefault, which is atomic, so
concurrent threads that build the same partition all get the first
object stored.  The table only grows, like the caches of the other
modules.  Copying or unpickling a partition gives back the interned
object.  The centralizer order z is computed once per object, on the
first centralizer_size() call, and stored with it.

_check_int is the integer rule of the package: every int argument that
any module takes (a size, a level, an n, a part, a point, an entry) is
checked by it, with the one message form "{what} must be {kind}, got
{value!r}".
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, Iterator

# the one Partition per parts tuple; only Partition._of adds to it
_TABLE: dict[tuple[int, ...], "Partition"] = {}


class Partition:
    """A weakly decreasing tuple of positive integers; may be empty.

    Immutable and interned (module docstring): Partition(parts) is the one
    object for that tuple.  The empty partition is a first-class value:
    it is the multiplicative unit of the class algebra and serializes as
    the empty string.
    """

    __slots__ = ("_parts", "_z")

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        p = tuple(parts)
        for i, x in enumerate(p):
            _check_int(x, "partition part", 1)
            if i and p[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {p}")
        return cls._of(p)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "Partition":
        """Trusted construction: the interned object for parts, which must
        already be a weakly decreasing tuple of positive ints (not checked)."""
        p = _TABLE.get(parts)
        if p is None:
            p = object.__new__(cls)
            p._parts, p._z = parts, 0
            p = _TABLE.setdefault(parts, p)
        return p

    def __reduce__(self) -> tuple:
        """copy, deepcopy and pickle rebuild through the constructor, which
        returns the interned object."""
        return Partition, (self._parts,)

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
        _check_int(k, "part size", 1)
        return self._parts.count(k)

    def centralizer_size(self) -> int:
        """z = prod_k k^{m_k} m_k!, the centralizer order for this cycle type,
        computed on the first call and stored."""
        if self._z:
            return self._z
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
        self._z = z
        return z

    def pad(self, n: int) -> "Partition":
        """The partition of n obtained by appending parts of size 1."""
        r = self.size()
        _check_int(n, "padded size", r)
        return Partition._of(self._parts + (1,) * (n - r))

    def strip_ones(self) -> "Partition":
        """The partition with all parts equal to 1 removed."""
        p = self._parts
        return Partition._of(p[:len(p) - p.count(1)])

    def is_proper(self) -> bool:
        """True when no part equals 1."""
        return not self._parts or self._parts[-1] != 1

    def sort_key(self) -> tuple:
        """Canonical order: ascending size, then reverse-lexicographic."""
        return (self.size(), tuple(-x for x in self._parts))

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
    return tuple(Partition._of(p) for p in _gen_parts(r, r if r else 1))


def _check_int(value: int, what: str, low: int | None = None) -> None:
    """Raise ValueError unless value is an int and, if low is given, at
    least low: a bool would be read as 0 or 1 (a cache too keys True as 1),
    a float would fail later with TypeError, and a size below its bound
    would read as nothing at all."""
    if type(value) is not int or low is not None and value < low:
        kind = ("an integer" if low is None else "a nonnegative integer" if low == 0
                else "a positive integer" if low == 1 else f"an integer of at least {low}")
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def enumerate_partitions(r: int) -> list[Partition]:
    """All partitions of r, reverse-lexicographically, each exactly once."""
    _check_int(r, "partition size", 0)
    return list(_partitions_tuple(r))


def partitions_up_to(r: int) -> list[Partition]:
    """All partitions of 0, 1, ..., r in canonical order."""
    _check_int(r, "partition size", 0)
    out: list[Partition] = []
    for k in range(r + 1):
        out.extend(_partitions_tuple(k))
    return out


def partition_count(r: int) -> int:
    """p(r), the number of partitions of r."""
    _check_int(r, "partition size", 0)
    return len(_partitions_tuple(r))


def _ints(values: Iterable[int], what: str) -> list[int]:
    """The values as a list, each an int: a float, Fraction or bool entry
    raises ValueError instead of being truncated or read as 0 or 1.  what
    names one entry."""
    out = list(values)
    for x in out:
        _check_int(x, what)
    return out


EMPTY = Partition()
