"""Exact rational exponent arithmetic with an infinity sentinel.

Threshold formulas are evaluated in fractions.Fraction whenever the
inputs are rational so the worked examples reproduce exactly; math.inf
passes through as the p = infinity sentinel.  `Pieces` holds a family's
Salem exponent s(p) as exact piecewise data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

Exact = Fraction | float  # Fraction when finite and exact, float otherwise


def is_inf(x) -> bool:
    return x == math.inf


def exact(x) -> Exact:
    """Fraction for exactly-representable finite inputs, inf passthrough."""
    return math.inf if is_inf(x) else Fraction(x)


def fmt(x) -> str:
    """Serialize: "num/den" for Fractions, "inf", or a float repr."""
    if x is None:
        return "none"
    if x == math.inf:
        return "inf"
    if isinstance(x, Rational):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return repr(float(x))


@dataclass(frozen=True)
class Pieces:
    """An exact piecewise exponent s(p) on [lo_0, inf].

    `segments` is a tuple of (lo, lines) with strictly increasing lo;
    a segment covers [lo, next lo), the last one [lo, inf).  On a
    segment s(p) is the minimum of a + b/p over its lines (a, b), so
    s(inf) is the least a of the last segment.  A jump in s starts a
    new segment; the first lo is the domain.
    """

    segments: tuple  # ((lo, ((a, b), ...)), ...)

    def __post_init__(self) -> None:
        segs = tuple((Fraction(lo), tuple((Fraction(a), Fraction(b))
                                          for a, b in lines))
                     for lo, lines in self.segments)
        if not segs or not all(lines for _, lines in segs):
            raise ValueError("pieces need at least one segment and line")
        object.__setattr__(self, "segments", segs)
        for (lo0, lines0), (lo1, lines1) in zip(segs, segs[1:]):
            if lo0 >= lo1:
                raise ValueError("segment starts must increase strictly")
            # ||mu^||_p is continuous in p, so a bound for every p < lo
            # holds at lo in the limit: s never has to fall at a jump
            if self.at(lo1) < min(a + b / lo1 for a, b in lines0):
                raise ValueError(f"s falls at the jump p = {lo1}")

    @property
    def domain(self) -> Fraction:
        return self.segments[0][0]

    def at(self, p_exp) -> Fraction:
        if is_inf(p_exp):
            return min(a for a, _ in self.segments[-1][1])
        pe = exact(p_exp)
        if pe < self.domain:
            raise ValueError(f"p_exp must be >= {self.domain}, got {p_exp}")
        lines = [lines for lo, lines in self.segments if lo <= pe][-1]
        return min(a + b / pe for a, b in lines)

