"""Class vectors: sparse rational combinations of class-algebra basis elements.

Kept apart from the structure constants so that both the class algebra
and the character layer (which evaluates class vectors) can import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .partitions import EMPTY, Partition

Coeff = int | Fraction


class ClassVector:
    """Sparse rational combination of basis partitions.

    `level` is the truncation: when present every key satisfies
    |rho| <= level and the vector lives in A_level; when absent the vector
    is stable (valid in every A_n with n >= the largest key).  Equality
    compares coefficients only.  Coefficients are stored as Fractions: a
    Fraction is kept as given, any other coefficient is converted, and
    zero coefficients are dropped.
    """

    __slots__ = ("terms", "level")

    def __init__(self, terms: Mapping[Partition, Coeff], level: int | None = None) -> None:
        self.terms = {p: c if type(c) is Fraction else Fraction(c)
                      for p, c in terms.items() if c}
        self.level = level
        if level is not None:
            for p in self.terms:
                if p.size() > level:
                    raise ValueError(f"|{p}| exceeds truncation level {level}")

    @classmethod
    def unit(cls, level: int | None = None) -> "ClassVector":
        return cls({EMPTY: Fraction(1)}, level)

    @classmethod
    def basis(cls, rho: Partition, level: int | None = None) -> "ClassVector":
        return cls({rho: Fraction(1)}, level)

    def coefficient(self, rho: Partition) -> Fraction:
        return self.terms.get(rho, Fraction(0))

    def support(self) -> list[Partition]:
        return sorted(self.terms, key=Partition.sort_key)

    def items(self) -> list[tuple[Partition, Fraction]]:
        return [(p, self.terms[p]) for p in self.support()]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ClassVector") -> "ClassVector":
        """The sum truncated at the lower of the two levels, if any."""
        lv = [x for x in (self.level, other.level) if x is not None]
        level = min(lv) if lv else None
        out: dict[Partition, Fraction] = {}
        for p, c in (*self.terms.items(), *other.terms.items()):
            if level is None or p.size() <= level:
                out[p] = out.get(p, Fraction(0)) + c
        return ClassVector(out, level)

    def __rmul__(self, scalar: Coeff) -> "ClassVector":
        return ClassVector({p: Fraction(scalar) * c for p, c in self.terms.items()},
                           self.level)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClassVector) and self.terms == other.terms

    def __repr__(self) -> str:
        body = " + ".join(f"{c} A({p})" for p, c in self.items())
        return f"ClassVector({body or '0'}, level={self.level})"
