"""Sparse multivariate polynomials over the rationals, plus weight machinery.

``Polynomial`` is an ``ExactMap`` (see ``exact``) from exponent tuples to
Fraction coefficients, and the weights enter through ``exact_rational``.

Exponent vectors are tuples of non-negative ints aligned with an ordered
variable tuple; coefficients are ``fractions.Fraction`` (exact, lowest terms,
positive denominator).  The monomial order is graded reverse lexicographic
with respect to the tuple order, x_0 > x_1 > ... > x_{n-1}, defined by
``grevlex_key`` alone: every comparison, leading term and sort in the
package goes through that key, with one exception.  ``Polynomial.__str__``
sorts the exponent tuples of a one-variable polynomial as they are, since
in one variable grevlex is the exponent order.

Weight vectors are tuples of Fractions in the open interval (0, 1); a
polynomial is weighted-homogeneous when every term has weighted degree
exactly 1.
"""

import math
import operator
from fractions import Fraction

from .errors import (
    InconsistentWeightsError,
    LengthMismatchError,
    UnderdeterminedWeightsError,
    WeightOutOfRangeError,
)
from .exact import ExactMap, exact_int, exact_rational, shown


# -- exponent vectors ---------------------------------------------------------


def grevlex_key(e):
    """Sort key: larger key = larger monomial in grevlex (total degree first,
    then the smaller rightmost differing exponent)."""
    return (sum(e), tuple(map(operator.neg, reversed(e))))


def exp_add(a, b):
    return tuple(map(operator.add, a, b))


class Polynomial(ExactMap):
    """Immutable sparse polynomial.  ``terms`` maps exponent tuples to
    Fraction coefficients.

    All arithmetic requires both operands to share the same variable tuple;
    ints and Fractions lift to constants.
    """

    __slots__ = ("variables",)
    _scalars = (int, Fraction)
    _value = staticmethod(exact_rational)
    _public = None  # no rational key part: terms is a read-only view of scaled

    def __init__(self, variables, terms=()):
        object.__setattr__(self, "variables", tuple(variables))
        super().__init__(terms)

    @staticmethod
    def _joiner(den):
        return exp_add

    def _key(self, e):
        e = tuple(map(exact_int, e))
        n = len(self.variables)
        if len(e) != n:
            raise LengthMismatchError(f"exponent vector {e} has length {len(e)}, expected {n}")
        if any(x < 0 for x in e):
            raise ValueError(f"negative exponent in {e}")
        return e, 1

    @property
    def _unit(self):
        return (0,) * len(self.variables)

    @classmethod
    def from_scaled(cls, pairs, variables):
        """The polynomial in ``variables`` of the stored (exponent, coefficient) pairs."""
        out = super().from_scaled(pairs)
        object.__setattr__(out, "variables", tuple(variables))
        return out

    def _like(self, pairs, den=1):  # den is 1: a polynomial's keys have no rational part
        return type(self).from_scaled(pairs, self.variables)

    def __reduce__(self):
        return type(self).from_scaled, (tuple(self.scaled.items()), self.variables)

    def _coerce(self, other):
        if isinstance(other, Polynomial) and other.variables != self.variables:
            raise ValueError(f"variable mismatch: {self.variables} vs {other.variables}")
        return super()._coerce(other)

    def __eq__(self, other):
        if isinstance(other, Polynomial) and other.variables != self.variables:
            return False
        return super().__eq__(other)

    # -- constructors ------------------------------------------------------

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: 1})

    # -- calculus and degrees ----------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        pairs = []
        for e, c in self.scaled.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                pairs.append((tuple(d), c * e[i]))
        return self._like(pairs)

    def total_degree(self):
        """Largest total degree of a term, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- rendering ---------------------------------------------------------

    def _monomial(self, e) -> str:
        return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(self.variables, e) if k)

    def __str__(self):
        if len(self.variables) == 1:  # in one variable grevlex is the exponent order
            [v] = self.variables
            return self._render(
                sorted(self.scaled, reverse=True),
                lambda e: "" if not e[0] else v if e[0] == 1 else f"{v}^{e[0]}",
            )
        return self._render(sorted(self.scaled, key=grevlex_key, reverse=True), self._monomial)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.variables})"


# -- weights ----------------------------------------------------------------


def as_weights(values, nvars: int | None = None) -> tuple[Fraction, ...]:
    """Coerce to a tuple of Fractions (``exact_rational``), each required to
    lie in (0, 1)."""
    ws = tuple(map(exact_rational, values))
    for w in ws:
        if not (0 < w < 1):
            raise WeightOutOfRangeError(f"weight {shown(w)} outside the open interval (0, 1)")
    if nvars is not None and len(ws) != nvars:
        raise LengthMismatchError(f"{len(ws)} weights for {nvars} variables")
    return ws


def _scaled_weights(ws) -> tuple[int, list[int]]:
    """(m, c) for checked weights: m the lcm of their denominators, c_i = m * w_i
    as an int, so the weighted degree of e is sum(c_i * e_i) / m."""
    m = math.lcm(*(w.denominator for w in ws))
    return m, [w.numerator * (m // w.denominator) for w in ws]


def weighted_degree(exponents, weights) -> Fraction:
    """Sum of w_i * e_i, as the Fraction sum(c_i * e_i) / m (``_scaled_weights``).
    Each pair is read by ``exact_int`` and ``exact_rational`` in turn (a float,
    a bool or a non-integral exponent raises TypeError), weights in any range."""
    if len(exponents) != len(weights):
        raise LengthMismatchError(
            f"exponent vector of length {len(exponents)} against {len(weights)} weights"
        )
    pairs = [(exact_int(e), exact_rational(w)) for e, w in zip(exponents, weights)]
    m, c = _scaled_weights([w for _, w in pairs])
    return Fraction(sum(map(operator.mul, c, (e for e, _ in pairs))), m)


def is_weighted_homogeneous(f: Polynomial, weights) -> bool:
    """True when sum(c_i * e_i) == m (``_scaled_weights``), weighted degree 1,
    on every stored exponent tuple e of f; the zero polynomial counts."""
    m, c = _scaled_weights(as_weights(weights, len(f.variables)))
    return all(sum(map(operator.mul, c, e)) == m for e in f.scaled)


def infer_weights(f: Polynomial) -> tuple[Fraction, ...]:
    """Solve for the unique weight vector giving every term degree 1.

    Fraction-free Gauss-Jordan elimination on the integer rows ``[*e, 1]``:
    a column is cleared by ``row = p*row - a*pivot_row`` (p the pivot, a the
    row's entry), and the row is then divided by the gcd of its entries.
    Each integer row is a nonzero multiple of the row that exact rational
    elimination with the same pivots would hold, so the same entries vanish,
    the same pivots are chosen, and each weight is one ``Fraction(rhs,
    pivot)``.  Raises InconsistentWeightsError when no solution exists,
    UnderdeterminedWeightsError when the solution is not unique, and
    WeightOutOfRangeError when the solved weights leave (0, 1).
    """
    n = len(f.variables)
    rows = [[*e, 1] for e in sorted(f.terms)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank]
        p = pivot[col]
        for i, row in enumerate(rows):
            a = row[col]
            if a and i != rank:
                row = [p * x - a * y for x, y in zip(row, pivot)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == len(rows):
            break
    for row in rows[rank:]:
        if row[n]:
            raise InconsistentWeightsError(
                "no weight vector makes every term weighted degree 1"
            )
    if rank < n:
        raise UnderdeterminedWeightsError(
            "weights are not determined by the exponents; pass them explicitly"
        )
    # rank == n: row i has its pivot in column i and zeros in the others
    return as_weights([Fraction(rows[i][n], rows[i][i]) for i in range(n)], n)


def jacobian_generators(f: Polynomial) -> tuple[Polynomial, ...]:
    """All n partial derivatives, in variable order (zeros included)."""
    return tuple(f.partial(i) for i in range(len(f.variables)))
