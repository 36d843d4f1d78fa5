"""Exact capacity values: a rational part plus a symbolic infinite tier.

Capacities compare lexicographically, infinite tier first.  This keeps
all arithmetic exact while letting "infinity" edges participate in cut
sums and flow augmentation without magic numbers.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def _as_cap(x):
    """x as a Cap, or None if it is not a real number."""
    if isinstance(x, Cap):
        return x
    if isinstance(x, (int, Fraction, float)):
        return Cap(x)
    return None


def _comparison(op):
    """A rich comparison in the lexicographic order, infinite tier first."""

    def compare(self, other):
        other = _as_cap(other)
        if other is None:
            return NotImplemented
        return op((self.inf, self.fin), (other.inf, other.fin))

    return compare


class Cap:
    """An exact capacity ``inf * INFINITY + fin``.

    ``inf`` is an integer count of symbolic infinite units and ``fin`` a
    Fraction.  Caps form an ordered abelian group, which is all that cut
    accounting and augmenting-path flow need.
    """

    __slots__ = ("inf", "fin")

    def __init__(self, fin=0, inf=0):
        object.__setattr__(self, "fin", fin if isinstance(fin, Fraction) else Fraction(fin))
        object.__setattr__(self, "inf", int(inf))

    def __setattr__(self, name, value):
        raise AttributeError("Cap is immutable")

    @property
    def is_finite(self) -> bool:
        return self.inf == 0

    @staticmethod
    def of(value) -> "Cap":
        if isinstance(value, Cap):
            return value
        return Cap(Fraction(value))

    def to_int(self, denom: int, bits: int) -> int:
        """This Cap as the int ``inf * 2**bits + fin * denom``; denom must
        be a multiple of the denominator of fin."""
        return (self.inf << bits) + self.fin.numerator * (denom // self.fin.denominator)

    @staticmethod
    def from_int(x: int, denom: int, bits: int) -> "Cap":
        """The inverse of to_int, for finite parts with
        ``|fin * denom| < 2**(bits-1)``: the multiple of 2**bits nearest
        to x gives the infinite tier, the rest the finite part."""
        inf = (x + (1 << (bits - 1))) >> bits
        return Cap(Fraction(x - (inf << bits), denom), inf)

    def __add__(self, other):
        other = _as_cap(other)
        if other is None:
            return NotImplemented
        return Cap(self.fin + other.fin, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_cap(other)
        if other is None:
            return NotImplemented
        return Cap(self.fin - other.fin, self.inf - other.inf)

    def __rsub__(self, other):
        other = _as_cap(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cap(-self.fin, -self.inf)

    def __mul__(self, k):
        if isinstance(k, Cap):
            raise TypeError("cannot multiply two Caps")
        return Cap(self.fin * k, self.inf * k)

    __rmul__ = __mul__

    __eq__ = _comparison(operator.eq)
    __lt__ = _comparison(operator.lt)
    __le__ = _comparison(operator.le)
    __gt__ = _comparison(operator.gt)
    __ge__ = _comparison(operator.ge)

    def __hash__(self):
        # A finite Cap equals its Fraction, so it must hash like it too.
        return hash(self.fin) if self.inf == 0 else hash((self.inf, self.fin))

    def __bool__(self):
        return self.inf != 0 or self.fin != 0

    def __repr__(self):
        if self.inf == 0:
            return f"Cap({self.fin})"
        return f"Cap({self.fin}, inf={self.inf})"

    def __str__(self):
        """The text format's capacity token (``io.parse_capacity`` reads it)."""
        if self.inf == 0:
            return str(self.fin)
        if self.fin == 0:
            return "inf" if self.inf == 1 else f"{self.inf}*inf"
        return f"{self.inf}*inf+{self.fin}"


ZERO = Cap(0)
ONE = Cap(1)
INF = Cap(0, 1)


def cap_min(values):
    it = iter(values)
    best = next(it)
    for v in it:
        if v < best:
            best = v
    return best
