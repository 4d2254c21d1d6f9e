"""Text form of polynomials.

Grammar (no implicit multiplication, ``^`` binds tighter than ``*`` binds
tighter than ``+``/``-``)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT ['/' INT] | IDENT | '(' expr ')'

``a/b`` is a single rational literal (division exists only between integer
literals).  Identifiers must appear in the caller's variable list.  Errors
carry the byte offset of the offending token; the grammar is pure ASCII, so
byte and character offsets agree at every reachable error position.
A polynomial has at most ``poly.MAX_DIMENSION`` variables.  Parentheses
nest at most ``MAX_NESTING`` deep, so that no input exhausts the
interpreter's recursion limit; an integer literal has at most the digits of
``poly._digit_limit``; and a power ``base^k`` or a product ``a*b`` is expanded
only within the budgets ``MAX_POWER_TERMS`` and ``MAX_POWER_BITS`` (see
``_check_power`` and ``_check_product``).

A single nonzero term travels through ``atom``, ``factor`` and ``term`` as an
(exponent, coefficient) pair, so no one-term Polynomial is built for a
number, a variable, or a power or product of single terms.  The zero literal
is the zero polynomial, and every multi-term operand a Polynomial.  A
product with a Polynomial factor is held unexpanded (``_Product``) until the
whole product has passed the budgets, which read closed-form bounds on each
factor and on each partial product (``_power_bounds``), so no factor of a
refused product is ever expanded.  A pair meets the budgets by the same
formulas for one term (``_bits``).  The tokenizer, the variable check and
those budgets are the parser's validation, so multi-term operands and the
final sum are built with ``Polynomial.from_scaled``, not re-checked by the
public constructor.
"""

import math
from fractions import Fraction

from .errors import PolynomialSyntaxError, ResourceLimitError, UnknownVariableError
from .poly import MAX_DIMENSION, Polynomial, _digit_limit, exp_add, shown

_OPS = set("+-*/^()")

MAX_NESTING = 100

_ONE = Fraction(1)

# budgets on base^k and a*b, checked before expanding them; (x+y+z)^20 needs 231 terms, 40 bits
MAX_POWER_TERMS = 1_000
MAX_POWER_BITS = 1_000


def _refuse(what: str, terms: int, bits: int, offset: int) -> None:
    if terms > MAX_POWER_TERMS or bits > MAX_POWER_BITS:
        raise ResourceLimitError(
            f"{what} with term count up to {shown(terms)} and coefficients up to {shown(bits)} "
            f"bits exceeds the limits of {MAX_POWER_TERMS} terms and {MAX_POWER_BITS} bits "
            f"(at offset {offset})"
        )


def _capped_prod(factors, cap: int) -> int:
    """The product of the factors (each >= 1), or the first partial product
    above ``cap``: either way, min(cap, product) is exact."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            break
    return out


def _pairs(v) -> list:
    """The stored (exponent, coefficient) pairs of an operand as the parser
    carries it: a single term's pair, or a Polynomial."""
    return [v] if type(v) is tuple else list(v.scaled.items())


def _bits(c) -> int:
    """ceil(log2 |numerator|) + ceil(log2 denominator) of a nonzero Fraction:
    the coefficient bits of ``_power_bounds`` for a single term."""
    return (abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()


def _integral(pairs) -> tuple[list, int]:
    """(numerators P_i, denominator D) with p = sum P_i x^e_i / D for the
    stored (exponent, coefficient) pairs of p, D the lcm of the coefficient
    denominators."""
    den = math.lcm(*[c.denominator for _, c in pairs])
    return [c.numerator * (den // c.denominator) for _, c in pairs], den


def _power_bounds(base, k: int):
    """Closed-form bounds on base^k, ``base`` a pair or a Polynomial read
    through ``_pairs``: (T, E, lo, hi, bits), with T the term count, E the
    largest exponent of each variable, lo and hi the least and largest
    degree, and bits = ceil(log2 max |P_i|) + ceil(log2 D) for the power
    written as P / D, P integral; None for the zero polynomial.

    A t-term base has at most comb(t - 1 + k, k) terms in its k-th power, and
    at most prod(E_i + 1) (that product stops once it passes the first
    bound).  For base = P / D as in ``_integral``, a coefficient of the k-th
    power has numerator at most |P|_1^k (at most max |P_i| for k = 1) and
    denominator at most D^k."""
    base = _pairs(base)
    if not base:
        return None
    exps = [e for e, _ in base]
    top = tuple(k * max(col) for col in zip(*exps))
    degrees = [sum(e) for e in exps]
    terms = math.comb(len(base) - 1 + k, k)
    if terms > 1:  # each factor of the product is at least 1
        terms = min(terms, _capped_prod((x + 1 for x in top), terms))
    nums, den = _integral(base)
    num = max(map(abs, nums)) if k == 1 else sum(map(abs, nums))
    bits = k * ((num - 1).bit_length() + (den - 1).bit_length())
    return terms, top, k * min(degrees), k * max(degrees), bits


def _check_power(base, k: int, offset: int):
    """Raise ResourceLimitError when base^k may exceed the power budgets by
    its ``_power_bounds``; else return those bounds."""
    bounds = _power_bounds(base, k)
    if bounds is not None:
        _refuse("power", bounds[0], bounds[4], offset)
    return bounds


def _check_product(a, b, offset: int):
    """Raise ResourceLimitError when a * b may exceed the power budgets; else
    return bounds on a * b.  ``a`` and ``b`` are bounds as ``_power_bounds``
    gives them (None for zero), so neither operand need be expanded.

    a * b has at most T_a * T_b terms; when that is over budget, also at most
    prod(E_i + 1), E = E_a + E_b, and at most the number of monomials of
    degree between lo_a + lo_b and hi_a + hi_b.  With huge exponents these
    are huge numbers, so they are computed only then, the product stops once
    it passes T_a * T_b, and the monomial count is skipped when it cannot be
    smaller (in n >= 2 variables it exceeds the largest degree).  A
    coefficient sums at most min(T_a, T_b) products, so it needs at most
    bits_a + bits_b + ceil(log2 min(T_a, T_b)) bits."""
    if a is None or b is None:
        return None
    (ta, ea, loa, hia, bitsa), (tb, eb, lob, hib, bitsb) = a, b
    terms, top, lo, hi = ta * tb, exp_add(ea, eb), loa + lob, hia + hib
    if terms > MAX_POWER_TERMS:
        n = len(top)
        dense = _capped_prod((x + 1 for x in top), terms)
        # in two or more variables the slab holds over hi monomials of degree hi
        if n == 1 or hi < terms:
            terms = min(terms, math.comb(hi + n, n) - (math.comb(lo - 1 + n, n) if lo else 0))
        terms = min(terms, dense)
    bits = (min(ta, tb) - 1).bit_length() + bitsa + bitsb
    _refuse("product", terms, bits, offset)
    return terms, top, lo, hi, bits


class _Product:
    """Factors of a product, not yet multiplied out: (base, k) for base^k,
    ``base`` a pair or a Polynomial; ``bounds`` are closed-form bounds on the
    whole product, as ``_power_bounds`` gives them (None: the product is zero)."""

    __slots__ = ("factors", "bounds")

    def __init__(self, factors, bounds):
        self.factors, self.bounds = factors, bounds


def _tokenize(text: str):
    digits = _digit_limit()
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isascii() and ch.isdigit():
            j = i + 1
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            if j - i > digits:
                raise PolynomialSyntaxError(
                    f"integer literal of {j - i} digits exceeds the limit of {digits}", i
                )
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            if not ch.isascii():
                raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
            j = i + 1
            while j < n and (text[j].isascii() and (text[j].isalnum() or text[j] == "_")):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str, variables):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.variables = tuple(variables)
        n = len(self.variables)
        self.zero = (0,) * n
        # the exponent of each variable; the first of repeated names wins
        self.units = {
            v: self.zero[:i] + (1,) + self.zero[i + 1:]
            for i, v in reversed(tuple(enumerate(self.variables)))
        }

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: str):
        kind, text, offset = self.peek()
        what = "end of input" if kind == "end" else repr(text)
        raise PolynomialSyntaxError(f"expected {expected}, found {what}", offset)

    def polynomial(self, v) -> Polynomial:
        """An operand as a Polynomial: a pair becomes its one-term polynomial."""
        return Polynomial.from_scaled([v], self.variables) if type(v) is tuple else v

    def expr(self):
        """The signed terms of every summand go into one ``from_scaled``
        call, unless the sum is a single term, which stays a pair."""
        pairs = []
        op = self.take()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            summand = _pairs(self.term())
            pairs += [(e, -c) for e, c in summand] if op == "-" else summand
            if self.peek()[0] not in ("+", "-"):
                if len(pairs) == 1:
                    return pairs[0]
                return Polynomial.from_scaled(pairs, self.variables)
            op = self.take()[0]

    def term(self):
        """A product.  Single terms multiply in closed form, as pairs.  Once
        a factor is a power of a Polynomial, the factors are kept as a
        ``_Product``: each '*' checks the product so far from closed-form
        bounds (``_check_product``), and the factors are expanded only once
        the whole product has passed, so an oversized product is refused
        before any of its factors is expanded."""
        result = self.factor()
        while self.peek()[0] == "*":
            offset = self.take()[2]
            right = self.factor()
            if type(result) is tuple and type(right) is tuple:
                _refuse("product", 1, _bits(result[1]) + _bits(right[1]), offset)
                result = (exp_add(result[0], right[0]), result[1] * right[1])
            else:
                a, b = (
                    v if type(v) is _Product else _Product([(v, 1)], _power_bounds(v, 1))
                    for v in (result, right)
                )
                result = _Product(a.factors + b.factors, _check_product(a.bounds, b.bounds, offset))
        if type(result) is tuple:
            return result
        if result.bounds is None:
            return Polynomial.from_scaled((), self.variables)
        out = None
        for base, k in result.factors:  # within the budgets: expand, left to right
            p = self.polynomial(base) if k == 1 else base**k
            out = p if out is None else out * p
        return out

    def factor(self):
        """A single term, a power of one in closed form, or a zeroth power as
        a pair; any other operand as a one-factor ``_Product``."""
        base = self.atom()
        if self.peek()[0] != "^":
            return base if type(base) is tuple else _Product([(base, 1)], _power_bounds(base, 1))
        self.take()
        kind, text, offset = self.peek()
        if kind != "int":
            self.fail("integer exponent")
        self.take()
        k = int(text)
        if type(base) is tuple:  # closed form: exponents times k, coefficient to the k
            e, c = base
            _refuse("power", 1, k * _bits(c), offset)
            return tuple(x * k for x in e), c**k
        bounds = _check_power(base, k, offset)
        return (self.zero, _ONE) if k == 0 else _Product([(base, k)], bounds)

    def atom(self):
        """A nonzero number or a variable as a pair (exponent, coefficient);
        the zero literal as the zero polynomial; a parenthesized sum as
        ``expr`` returns it, a one-term polynomial turned into its pair."""
        kind, text, offset = self.peek()
        if kind == "int":
            self.take()
            value = Fraction(int(text))
            if self.peek()[0] == "/":
                self.take()
                dk, dt, doff = self.peek()
                if dk != "int":
                    self.fail("integer denominator")
                self.take()
                if int(dt) == 0:
                    raise PolynomialSyntaxError("zero denominator", doff)
                value /= int(dt)
            if value:
                return self.zero, value
            return Polynomial.from_scaled((), self.variables)
        if kind == "ident":
            self.take()
            if text not in self.variables:
                raise UnknownVariableError(text, offset)
            return self.units[text], _ONE
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise PolynomialSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", offset
                )
            self.take()
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.peek()[0] != ")":
                self.fail("')'")
            self.take()
            if type(inner) is not tuple and len(inner.scaled) == 1:
                [inner] = inner.scaled.items()
            return inner
        self.fail("a number, variable, or '('")


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse ``text`` into a Polynomial over the given ordered variables.

    More than ``MAX_DIMENSION`` variables raise ResourceLimitError before
    anything is built for them."""
    variables = tuple(variables)
    if len(variables) > MAX_DIMENSION:
        raise ResourceLimitError(f"{len(variables)} variables exceed the limit of {MAX_DIMENSION}")
    p = _Parser(text, variables)
    result = p.expr()
    if p.peek()[0] != "end":
        p.fail("end of input")
    return p.polynomial(result)
