"""Integer combinations of rational powers of one formal variable t.

``FracPoly`` is an ``ExactMap`` (see ``poly``) from rational exponents
(``exact_rational``) to integer coefficients (``exact_int``: 3/2 raises
TypeError); exponents add in a product and ints lift to constants.
The canonical rendering (ascending exponents, sign-aware joining, coefficient
1 omitted, integer exponents without a denominator, every other exponent
parenthesized) is consumed verbatim by the command line and pinned by golden
tests; change it nowhere.
"""

import operator
from fractions import Fraction

from .poly import ExactMap, exact_int, exact_rational


class FracPoly(ExactMap):
    """Finitely supported map from rational exponents to integer coefficients."""

    __slots__ = ()
    _scalars = (int,)
    _key = staticmethod(exact_rational)
    _value = staticmethod(exact_int)
    _join = staticmethod(operator.add)

    @classmethod
    def term(cls, exponent, coefficient=1):
        return cls({exponent: coefficient})

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def support(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.terms))

    # -- canonical rendering -------------------------------------------------

    @staticmethod
    def _power(a: Fraction) -> str:
        if a == 0:
            return ""
        if a == 1:
            return "t"
        if a.denominator == 1 and a > 0:
            return f"t^{a}"
        return f"t^({a})"

    def __str__(self):
        return self._render(sorted(self.terms), self._power)

    def __repr__(self):
        return f"FracPoly({str(self)!r})"


def iota(s: FracPoly) -> FracPoly:
    """Exponent negation t^a -> t^(-a); an involution."""
    return FracPoly({-a: c for a, c in s.terms.items()})
