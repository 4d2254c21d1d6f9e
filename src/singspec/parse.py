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
is the zero polynomial, and every multi-term operand a Polynomial; the
budgets read both kinds through ``_pairs``, one formula for either.  The
tokenizer, the variable check and those budgets are the parser's validation,
so multi-term operands and the final sum are built with
``Polynomial.from_scaled``, not re-checked by the public constructor.
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


def _integral(pairs) -> tuple[list, int]:
    """(numerators P_i, denominator D) with p = sum P_i x^e_i / D for the
    stored (exponent, coefficient) pairs of p, D the lcm of the coefficient
    denominators."""
    den = math.lcm(*[c.denominator for _, c in pairs])
    return [c.numerator * (den // c.denominator) for _, c in pairs], den


def _check_power(base, k: int, offset: int) -> None:
    """Raise ResourceLimitError when base^k may exceed the power budgets;
    ``base`` is a pair or a Polynomial, read through ``_pairs``.

    A t-term base has at most comb(t - 1 + k, k) terms in its k-th power, and
    at most prod(k * e_i + 1), e_i the largest exponent of variable i (that
    product stops once it passes the first bound).  For base = P / D, P
    integral and D the lcm of the denominators, a coefficient has numerator
    at most |P|_1^k and denominator at most D^k."""
    base = _pairs(base)
    if not base:
        return
    terms = math.comb(len(base) - 1 + k, k)
    if terms > 1:  # each factor of the product is at least 1
        dense = _capped_prod((k * max(col) + 1 for col in zip(*(e for e, _ in base))), terms)
        terms = min(terms, dense)
    nums, den = _integral(base)
    norm = sum(abs(x) for x in nums)
    _refuse("power", terms, k * ((norm - 1).bit_length() + (den - 1).bit_length()), offset)


def _check_product(a, b, offset: int) -> None:
    """Raise ResourceLimitError when a * b may exceed the power budgets;
    ``a`` and ``b`` are pairs or Polynomials, read through ``_pairs``.

    With T the term counts, a * b has at most T_a * T_b terms; when that is
    over budget, also at most prod(e_a,i + e_b,i + 1), e_i the largest
    exponent of variable i, and at most the number of monomials of degree
    between the sums of the operands' least and largest degrees.  With huge
    exponents these are huge numbers, so they are computed only then, the
    product stops once it passes T_a * T_b, and the monomial count is skipped
    when it cannot be smaller (in n >= 2 variables it exceeds the largest
    degree).  A
    coefficient sums at most min(T_a, T_b) products, so it needs at most
    bits_a + bits_b + ceil(log2 min(T_a, T_b)) bits, with
    bits = ceil(log2 max |P_i|) + ceil(log2 D) for P / D as in ``_integral``."""
    a, b = _pairs(a), _pairs(b)
    if not a or not b:
        return
    terms = len(a) * len(b)
    if terms > MAX_POWER_TERMS:
        ea, eb = [e for e, _ in a], [e for e, _ in b]
        n = len(ea[0])
        dense = _capped_prod((max(x) + max(y) + 1 for x, y in zip(zip(*ea), zip(*eb))), terms)
        da, db = [sum(e) for e in ea], [sum(e) for e in eb]
        lo, hi = min(da) + min(db), max(da) + max(db)
        # in two or more variables the slab holds over hi monomials of degree hi
        if n == 1 or hi < terms:
            terms = min(terms, math.comb(hi + n, n) - (math.comb(lo - 1 + n, n) if lo else 0))
        terms = min(terms, dense)
    bits = (min(len(a), len(b)) - 1).bit_length()
    for p in (a, b):
        nums, den = _integral(p)
        bits += (max(map(abs, nums)) - 1).bit_length() + (den - 1).bit_length()
    _refuse("product", terms, bits, offset)


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
        result = self.factor()
        while self.peek()[0] == "*":
            offset = self.take()[2]
            right = self.factor()
            _check_product(result, right, offset)
            if type(result) is tuple and type(right) is tuple:
                result = (exp_add(result[0], right[0]), result[1] * right[1])
            else:
                result = self.polynomial(result) * self.polynomial(right)
        return result

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text, offset = self.peek()
            if kind != "int":
                self.fail("integer exponent")
            self.take()
            k = int(text)
            _check_power(base, k, offset)
            if type(base) is tuple:  # closed form: exponents times k, coefficient to the k
                e, c = base
                return tuple(x * k for x in e), c**k
            return base**k
        return base

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
