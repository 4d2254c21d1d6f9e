"""Sparse multivariate polynomials over the rationals, plus weight machinery.

``ExactMap`` is the one immutable exact sparse map behind every algebraic
object of the package: ``Polynomial`` here, ``FracPoly`` (spectra),
``spectrum.EigenMultiset`` (monodromy angles) and ``motivic.EquivClass``
(nearby-fiber classes).  Their values, and weight vectors, enter only through
``exact_int`` and ``exact_rational``, which raise TypeError on a float, a bool
or a non-integer in an integer slot: nothing is rounded on the way in.

The last three are keyed by rationals (exponents, angles), stored as integer
numerators over one denominator per map, so that arithmetic, hashing, sorting
and mod-1 reduction run on ints; their public keys are still Fractions.
``copy``, ``deepcopy`` and ``pickle`` rebuild a map through ``from_scaled``.

One rule says which way in to take: the constructor validates what a caller
hands in, and package code that already holds exact, checked values (stored
keys, Fraction coefficients of a Polynomial) builds its maps with
``from_scaled``, which validates nothing.

``terms`` never lets a caller change a map: ``Polynomial.terms`` is a
read-only view of the stored dict, the others build a new dict on each read.

``Record`` is the base of the package's plain records (``GroebnerBasis``,
``MilnorBasis``, ``spectrum.Analysis``, the model-file records,
``checks.CheckResult``, ``cli.Report``): slotted and immutable, compared and
shown by their fields, which are named once, in ``__slots__``.

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
import sys
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    InconsistentWeightsError,
    LengthMismatchError,
    UnderdeterminedWeightsError,
    WeightOutOfRangeError,
)


def exact_int(x) -> int:
    """A non-bool int, or a Fraction with denominator 1, as an int; else TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.denominator == 1:
        return x.numerator
    raise TypeError(f"{x!r} is not an exact integer")


def exact_rational(x) -> Fraction:
    """A non-bool int, a Fraction or a decimal string as a Fraction; else TypeError.

    A malformed string raises ValueError (or ZeroDivisionError), and so do a
    character outside ASCII (Fraction would read any Unicode digit) and a
    decimal exponent beyond the limit of ``_check_exponent``."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not x.isascii():
            raise ValueError(f"unexpected character {next(c for c in x if not c.isascii())!r}")
        _check_exponent(x)
        return Fraction(x)
    raise TypeError(f"{x!r} is not an exact rational")


# limit on the variables of a parsed polynomial and on a model file's n: the
# Gröbner run grows steeply with the dimension (a dense quadratic form takes
# 0.25 s in 32 variables, 1.0 s in 48 and 2.5 s in 64, Python 3.11 on a
# 2-core Xeon), and the parser builds an n-tuple per variable; the fixtures,
# the tests and the perfbench inputs need at most 5
MAX_DIMENSION = 32


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int read from a string,
    or its default, 4300, where none is set (limit 0, or Python < 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _check_exponent(s: str) -> None:
    """Refuse a decimal exponent e beyond ``_digit_limit()`` (the parser's
    limit on literals): Fraction would expand 10^e, which has e + 1 digits,
    and 1e-999999999 would never return."""
    _, e, tail = s.lower().rpartition("e")
    try:
        exp = int(tail) if e else 0
    except ValueError:
        return  # no integer exponent: Fraction names the malformed literal
    limit = _digit_limit()
    if abs(exp) > limit:
        raise ValueError(f"decimal exponent {exp} exceeds the limit of {limit}")


# past this many bits in its larger part (about 60 digits) a number in a
# message prints as its size; any digit limit of ``str`` is far above it
_SHOWN_BITS = 200


def shown(x) -> str:
    """``str(x)`` of an int or a Fraction, or, past ``_SHOWN_BITS`` bits,
    the bits of its larger part: a message about a huge number prints, and
    stays short, without converting the number."""
    bits = max(abs(x.numerator), x.denominator).bit_length()
    return str(x) if bits <= _SHOWN_BITS else f"<{bits}-bit number>"


def ratio(num: int, den: int) -> str:
    """num/den in lowest terms as ``str(Fraction(num, den))`` spells it: "u/v", or "u"."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}" if den != g else str(num // g)


class ExactMap:
    """Immutable finitely supported map from keys to nonzero values, with the
    ring structure of a monoid algebra: ``+`` adds values key by key, ``*``
    is convolution (keys join, values multiply), ``**`` repeats it.

    ``scaled`` holds the map with the rational part of each key (by default
    the whole key; ``Polynomial`` keys have none) stored as an int numerator
    over ``den``, the smallest denominator that serves every key, so equal
    maps have equal storage.  ``+``, ``*`` and ``==`` work on ``scaled`` over
    the lcm of the operands' denominators.  ``terms`` is the public map, with
    that rational part as a Fraction.

    The constructor is the only merge: ``__init__`` (public keys through
    ``_key``, to a stored key and its own denominator, and values through
    ``_value``) and ``from_scaled`` (stored pairs over ``den``, as ``+`` and
    ``*`` hand them over) add the values of repeated keys and pass the sums
    through ``_finish``, which drops zeros.  ``from_scaled`` checks nothing:
    it takes only values already checked (see the module docstring).
    Subclasses set ``_value`` and ``_scalars`` (types that lift to
    constants), and override where the default does not fit: ``_key``,
    ``_joiner`` (the join of two stored keys over ``den``), ``_unit`` (the
    key of the constant term), ``_num`` and ``_with`` (read and replace a
    stored key's numerator), ``_public`` (the public key of a stored key
    over ``den``), and ``from_scaled`` and ``_like`` for maps with more
    state.  The power error names the type.
    """

    __slots__ = ("scaled", "den")
    _scalars: tuple = ()
    _unit = 0
    _num = int  # by default a stored key is its numerator
    _public = Fraction

    @staticmethod
    def _key(a):
        a = exact_rational(a)
        return a.numerator, a.denominator

    @staticmethod
    def _with(k, n):
        return n

    @staticmethod
    def _joiner(den):
        return operator.add

    def __init__(self, terms=()):
        key, value, num, with_ = self._key, self._value, self._num, self._with
        items = terms.items() if isinstance(terms, (dict, MappingProxyType)) else terms
        pairs = [(key(k), value(c)) for k, c in items]
        den = math.lcm(*(d for (_, d), _ in pairs))
        self._merge(
            ((k if d == den else with_(k, num(k) * (den // d)), c) for (k, d), c in pairs), den
        )

    @classmethod
    def from_scaled(cls, pairs, den: int = 1):
        """The map of the stored (key, value) pairs over ``den``: values of
        repeated keys add, zeros drop, ``den`` shrinks to the smallest."""
        out = object.__new__(cls)
        out._merge(pairs, den)
        return out

    def _merge(self, pairs, den):
        acc: dict = {}
        for k, c in pairs:
            if k in acc:
                acc[k] += c
            else:
                acc[k] = c
        acc = self._finish(acc, den)
        if den > 1:
            num, with_ = self._num, self._with
            g = math.gcd(den, *map(num, acc))
            if g > 1:
                acc = {with_(k, num(k) // g): c for k, c in acc.items()}
                den //= g
        object.__setattr__(self, "scaled", acc)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _finish(acc: dict, den: int) -> dict:
        return {k: c for k, c in acc.items() if c}

    @property
    def terms(self):
        """The public map: a new dict on each read, or, when keys have no
        rational part, a read-only view of the stored one."""
        if self._public is None:
            return MappingProxyType(self.scaled)
        public, den = self._public, self.den
        return {public(k, den): c for k, c in self.scaled.items()}

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through from_scaled; the default
        # protocol would restore the slots by assignment, which is refused
        return type(self).from_scaled, (tuple(self.scaled.items()), self.den)

    def _like(self, pairs, den=1):
        return type(self).from_scaled(pairs, den)

    def scaled_over(self, den):
        """The stored pairs rescaled to ``den``, a multiple of ``self.den``."""
        f = den // self.den
        if f == 1:
            return self.scaled.items()
        num, with_ = self._num, self._with
        return [(with_(k, num(k) * f), c) for k, c in self.scaled.items()]

    def _coerce(self, other):
        """``other`` as a map of this kind (a scalar lifts to a constant), else None."""
        if isinstance(other, self._scalars):
            return self._like([(self._unit, self._value(other))])
        return other if type(other) is type(self) else None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        return self._like([*self.scaled_over(den), *other.scaled_over(den)], den)

    __radd__ = __add__

    def __neg__(self):
        return self._like(((k, -c) for k, c in self.scaled.items()), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        den = math.lcm(self.den, other.den)
        join, right = self._joiner(den), other.scaled_over(den)
        return self._like(
            ((join(ka, kb), ca * cb) for ka, ca in self.scaled_over(den) for kb, cb in right),
            den,
        )

    __rmul__ = __mul__

    def __pow__(self, n):
        if type(n) is not int or n < 0:  # a bool is no exponent
            raise ValueError(f"{type(self).__name__} powers must be non-negative integers")
        out, base = self._like([(self._unit, self._value(1))]), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.scaled == other.scaled

    def __bool__(self):
        return bool(self.scaled)

    def items(self):
        """Public (key, value) pairs in ascending key order (sorted as stored)."""
        scaled, public, den = self.scaled, self._public, self.den
        return [(k if public is None else public(k, den), scaled[k]) for k in sorted(scaled)]

    def _render(self, keys, monomial) -> str:
        """Signed sum over stored keys of |value| * monomial(key): coefficient
        1 omitted, a bare number for the empty monomial, "0" for no terms.
        A value is read as the ints ``numerator`` and ``denominator`` (an int
        has them too) and printed "|n|" or "|n|/d", as ``str(Fraction)`` does."""
        parts = []
        for k in keys:
            c = self.scaled[k]
            n, d, m = c.numerator, c.denominator, monomial(k)
            a = str(abs(n)) if d == 1 else f"{abs(n)}/{d}"
            body = (m if a == "1" else f"{a}*{m}") if m else a
            if parts:
                parts.append(f" - {body}" if n < 0 else f" + {body}")
            else:
                parts.append(f"-{body}" if n < 0 else body)
        return "".join(parts) or "0"


class Record:
    """Immutable record whose fields are named once, in ``__slots__``, in order.

    ``Record.__init__`` binds each field by slot name, given positionally in
    slot order or by keyword; a missing, extra or repeated field raises
    TypeError.  A subclass defines ``__init__`` only to check or canonicalize
    its fields before handing them on.  As for a frozen dataclass, ``==`` and
    ``hash`` go by the tuple of field values of records of one type, ``repr``
    is ``Name(field=value, ...)``, assignment raises AttributeError, and
    ``copy`` and ``pickle`` rebuild a record through its constructor.
    """

    __slots__ = ()
    __setattr__ = ExactMap.__setattr__

    def __init__(self, *values, **fields):
        names = self.__slots__
        # the keywords must name exactly the fields after the positional ones
        if len(values) > len(names) or fields.keys() != set(names[len(values):]):
            raise TypeError(
                f"{type(self).__qualname__} takes the fields {', '.join(names)}; "
                f"got {len(values)} positional and keywords {sorted(fields)}"
            )
        for name, value in (*zip(names, values), *fields.items()):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


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
