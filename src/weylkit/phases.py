"""Exact arithmetic in the circle group Q/Z.

A :class:`Phase` q stands for the unit complex number exp(2*pi*i*q).  Every
character, bicharacter and multiplier in this package takes values in Q/Z, so
all algebraic identities are decided with integer arithmetic; floating point
enters only when operators are rendered as complex matrices.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd


class Phase:
    """An element of Q/Z in canonical reduced form: 0 <= num < den, gcd(num, den) = 1.

    Phases form an abelian group under ``+``; they scale exactly by integers.
    Multiplying two phases is deliberately not defined.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int = 0, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("phase denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def parse(cls, text: str) -> "Phase":
        """Parse ``"num/den"`` or a bare integer string (an integer is 0 in Q/Z)."""
        s = text.strip()
        if "/" in s:
            a, b = s.split("/", 1)
            return cls(int(a), int(b))
        return cls(int(s), 1)

    def __add__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return Phase(-self.num, self.den)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Phase(self.num * k, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def order(self) -> int:
        """Additive order in Q/Z."""
        return self.den

    def complex(self) -> complex:
        """exp(2*pi*i*q) as a complex double."""
        return cmath.exp(2j * cmath.pi * self.num / self.den)

    def numerator_at(self, den: int) -> int:
        """Numerator when written over the common denominator ``den`` (must be a multiple)."""
        if den % self.den:
            raise ValueError(f"{self} has no numerator over denominator {den}")
        return self.num * (den // self.den)

    def __str__(self):
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Phase({self.num}, {self.den})"


ZERO = Phase(0, 1)
HALF = Phase(1, 2)


def as_phase(value) -> Phase:
    """Coerce a Phase, int, string ``"num/den"``, Fraction, or (num, den) pair."""
    if isinstance(value, Phase):
        return value
    if isinstance(value, int):
        return Phase(value, 1)
    if isinstance(value, str):
        return Phase.parse(value)
    if isinstance(value, Fraction):
        return Phase(value.numerator, value.denominator)
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return Phase(int(value[0]), int(value[1]))
    raise TypeError(f"cannot interpret {value!r} as a phase")
