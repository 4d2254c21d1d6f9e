"""The exact-map layer: exact readers, ``ExactMap``, ``Record``, the
dimension limit and the number formats that every module shares.

``ExactMap`` is the one immutable exact sparse map behind every algebraic
object of the package: ``poly.Polynomial``, ``fracpoly.FracPoly`` (spectra),
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

The module holds no polynomial or weight code, so that the command line's
``nearby`` path, which needs only maps and records, loads it without
``poly``.
"""

import math
import operator
import sys
from fractions import Fraction
from types import MappingProxyType


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
