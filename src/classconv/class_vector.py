"""Class vectors: sparse rational combinations of class-algebra basis elements.

Kept apart from the structure constants so that both the class algebra
and the character layer (which evaluates class vectors) can import it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .partitions import Partition, _check_int

Coeff = int | Fraction


def _coeff(c: Coeff) -> Fraction:
    """c as a Fraction; ValueError unless c is an int (not a bool) or a
    Fraction, so a float coefficient is refused instead of read in binary."""
    if type(c) is not int and not isinstance(c, Fraction):
        raise ValueError(f"coefficients must be integers or Fractions, got {c!r}")
    return Fraction(c)


class ClassVector:
    """Sparse rational combination of basis partitions.

    `level` is the truncation: when present every key satisfies
    |rho| <= level and the vector lives in A_level; when absent the vector
    is stable (valid in every A_n with n >= the largest key).

    The coefficients are held as nonzero integer numerators `nums` over one
    positive denominator `den`, in lowest terms (gcd(den, *nums) = 1), so
    equal vectors hold equal fields and equality compares them (not the
    level).  `terms` and `items` read them as reduced Fractions.  The
    integer sums (multiply, the psi sum, F) read `nums` and `den` directly
    and build their results through the trusted constructor `_of`; the
    public constructor converts and checks outside input, the level
    included.
    """

    __slots__ = ("nums", "den", "level")

    def __init__(self, terms: Mapping[Partition, Coeff], level: int | None = None) -> None:
        if level is not None:
            _check_int(level, "truncation level", 0)
        fracs = {p: f for p, c in terms.items() if (f := _coeff(c))}
        if level is not None:
            for p in fracs:
                if p.size() > level:
                    raise ValueError(f"|{p}| exceeds truncation level {level}")
        # over the lcm of reduced denominators the numerators share no factor with it
        self.den = lcm(*(c.denominator for c in fracs.values()))
        self.nums = {p: c.numerator * (self.den // c.denominator) for p, c in fracs.items()}
        self.level = level

    @classmethod
    def _of(cls, nums: Mapping[Partition, int], den: int, level: int | None) -> "ClassVector":
        """The vector sum (c/den) A_p over nums, den > 0, every key already
        within level: zero numerators dropped, the gcd divided out, unchecked."""
        g = gcd(den, *nums.values())
        v = object.__new__(cls)
        v.nums = {p: c // g for p, c in nums.items() if c}
        v.den = den // g
        v.level = level
        return v

    @classmethod
    def basis(cls, rho: Partition, level: int | None = None) -> "ClassVector":
        return cls({rho: 1}, level)

    @property
    def terms(self) -> dict[Partition, Fraction]:
        """The coefficients as reduced Fractions, in storage order."""
        return {p: Fraction(c, self.den) for p, c in self.nums.items()}

    def support(self) -> list[Partition]:
        return sorted(self.nums, key=Partition.sort_key)

    def items(self) -> list[tuple[Partition, Fraction]]:
        return [(p, Fraction(self.nums[p], self.den)) for p in self.support()]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassVector) and (self.den, self.nums) == (other.den, other.nums)

    def __repr__(self) -> str:
        body = " + ".join(f"{c} A({p})" for p, c in self.items())
        return f"ClassVector({body or '0'}, level={self.level})"
