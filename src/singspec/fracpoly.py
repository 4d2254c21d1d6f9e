"""Integer combinations of rational powers of one formal variable t.

``FracPoly`` is an ``ExactMap`` (see ``exact``) from rational exponents
(``exact_rational``) to integer coefficients (``exact_int``: 3/2 raises
TypeError); exponents add in a product and ints lift to constants.
Exponent a is stored as the int a * den over the map's one denominator
``den``; ``terms`` and ``items()`` give it as a Fraction.

The canonical rendering (ascending exponents, sign-aware joining, coefficient
1 omitted, integer exponents without a denominator, every other exponent
parenthesized) is consumed verbatim by the command line and pinned by golden
tests; change it nowhere.
"""

from .exact import ExactMap, exact_int, ratio


class FracPoly(ExactMap):
    """Finitely supported map from rational exponents to integer coefficients."""

    __slots__ = ()
    _scalars = (int,)
    _value = staticmethod(exact_int)

    def coefficient_sum(self) -> int:
        return sum(self.scaled.values())

    # -- canonical rendering -------------------------------------------------

    def _power(self, k: int) -> str:
        den = self.den
        if k == 0:
            return ""
        if k == den:
            return "t"
        if k > 0 and k % den == 0:
            return f"t^{k // den}"
        return f"t^({ratio(k, den)})"

    def __str__(self):
        return self._render(sorted(self.scaled), self._power)

    def __repr__(self):
        return f"FracPoly({str(self)!r})"


def sp_twist(s: FracPoly, n: int) -> FracPoly:
    """t^n times s with its exponents negated: a -> n - a, n read by ``exact_int``."""
    top = exact_int(n) * s.den
    return FracPoly.from_scaled(((top - k, c) for k, c in s.scaled.items()), s.den)
