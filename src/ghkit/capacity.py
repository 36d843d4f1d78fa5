"""Exact capacity values: a rational part plus a symbolic infinite tier.

Capacities compare lexicographically, infinite tier first.  This keeps
all arithmetic exact while letting "infinity" edges participate in cut
sums and flow augmentation without magic numbers.

The order is computed on ints: the infinite tiers are compared as ints,
and only on a tie the finite parts, by cross-multiplication
``p * s`` against ``r * q`` for ``fin = p/q`` and ``other.fin = r/s``
(``Fraction.as_integer_ratio``; a Fraction's denominator is always
positive, so the products order as the fractions do).  ``+`` and ``-``
combine the same int pairs and normalise once, in ``Fraction(num, den)``.
A Cap operand is used as it is; an int, Fraction or float operand is
converted to a Cap first, and a factor of ``*`` to a Fraction; anything
else gives NotImplemented.  Every Cap, results of arithmetic included, is
built through ``Cap.__init__``, so that patching it counts every
allocation.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def _as_cap(x):
    """x, not a Cap, as a Cap, or None if it is not a real number."""
    if isinstance(x, (int, Fraction, float)):
        return Cap(x)
    return None


def _comparison(op):
    """A rich comparison in the lexicographic order, infinite tier first."""

    def compare(self, other):
        if type(other) is not Cap:
            other = _as_cap(other)
            if other is None:
                return NotImplemented
        if self.inf != other.inf:
            return op(self.inf, other.inf)
        p, q = self.fin.as_integer_ratio()
        r, s = other.fin.as_integer_ratio()
        return op(p * s, r * q)

    return compare


class Cap:
    """An exact capacity ``inf * INFINITY + fin``.

    ``inf`` is an integer count of symbolic infinite units and ``fin`` a
    Fraction.  Caps form an ordered abelian group, which is all that cut
    accounting and augmenting-path flow need.  A non-int ``inf`` must be
    integral (``2.0``, ``Fraction(4, 2)``); any other raises ValueError, so
    ``INF * Fraction(1, 2)`` is an error rather than a truncated tier.
    """

    __slots__ = ("inf", "fin")

    def __init__(self, fin=0, inf=0):
        _set_fin(self, fin if type(fin) is Fraction else Fraction(fin))
        if type(inf) is not int:
            whole = int(inf)
            if whole != inf:
                raise ValueError(f"infinite tier {inf!r} is not an integer")
            inf = whole
        _set_inf(self, inf)

    def __setattr__(self, name, value):
        raise AttributeError("Cap is immutable")

    @property
    def is_finite(self) -> bool:
        return self.inf == 0

    def __add__(self, other):
        if type(other) is not Cap:
            other = _as_cap(other)
            if other is None:
                return NotImplemented
        p, q = self.fin.as_integer_ratio()
        r, s = other.fin.as_integer_ratio()
        return Cap(Fraction(p * s + r * q, q * s), self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Cap:
            other = _as_cap(other)
            if other is None:
                return NotImplemented
        p, q = self.fin.as_integer_ratio()
        r, s = other.fin.as_integer_ratio()
        return Cap(Fraction(p * s - r * q, q * s), self.inf - other.inf)

    def __rsub__(self, other):
        other = _as_cap(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return Cap(-self.fin, -self.inf)

    def __mul__(self, k):
        if not isinstance(k, (int, Fraction, float)):
            return NotImplemented  # Cap * Cap included
        k = Fraction(k)
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
        return self.inf != 0 or bool(self.fin)

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


_set_fin = Cap.fin.__set__
_set_inf = Cap.inf.__set__

ZERO = Cap(0)
INF = Cap(0, 1)
