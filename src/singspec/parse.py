"""Text form of polynomials.

Grammar (no implicit multiplication, ``^`` binds tighter than ``*`` binds
tighter than ``+``/``-``)::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT ['/' INT] | IDENT | '(' expr ')'

``_TOKEN`` is the lexical grammar: it skips blanks (space, tab, CR, LF) and
reads INT (ASCII digits), IDENT (``_NAME``: ``[A-Za-z_][A-Za-z0-9_]*``, also
the rule ``cli`` checks ``--vars`` by) or an operator; any other character is
refused.  ``a/b`` is a single rational literal (division exists only between
integer literals).  Identifiers must appear in the caller's variable list.
Errors carry the byte offset of the offending token; the grammar is pure
ASCII, so byte and character offsets agree at every reachable error position.
A polynomial has at most ``exact.MAX_DIMENSION`` variables.  Parentheses
nest at most ``MAX_NESTING`` deep, so that no input exhausts the
interpreter's recursion limit; an integer literal has at most the digits of
``exact._digit_limit``; and a power ``base^k`` or a product ``a*b`` is expanded
only within the budgets ``MAX_POWER_TERMS`` and ``MAX_POWER_BITS`` (see
``_power_bounds``, ``_refuse`` and ``_check_product``).

Every operand of ``atom``, ``factor`` and ``term`` is a term list: the
stored (exponent, coefficient) pairs of a polynomial, ``[]`` for zero.  One
closed form bounds every power, single terms included (``_power_bounds``);
a power is refused by those of base^k, but an operand carries the bounds of
the list it holds (a folded power of one term, those of c^k*x^(k*e)), and
``_check_product`` combines them at each '*'.  Single terms are never
expanded: a power or product of them is the exponent its bounds carry times
a product of coefficients.  The tokenizer, the variable check and the
budgets are the parser's validation, so expansions and sums are built with
``Polynomial.from_scaled``, not re-checked by the public constructor.
"""

import math
import re
from fractions import Fraction

from .errors import PolynomialSyntaxError, ResourceLimitError, UnknownVariableError
from .exact import MAX_DIMENSION, _digit_limit, shown
from .poly import Polynomial, exp_add

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"([ \t\r\n]*)(?:([0-9]+)|({_NAME.pattern})|([-+*/^()])|(.)|\Z)", re.S)

MAX_NESTING = 100

_ONE = Fraction(1)

# budgets on base^k and a*b, checked before expanding them; (x+y+z)^20 needs 231 terms, 31 bits
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


def _power_bounds(base, k: int):
    """Closed-form bounds (T, E, lo, hi, bits) on base^k, ``base`` a term
    list: T terms, E the largest exponent of each variable, degrees lo to hi,
    and coefficients of ceil(log2 max |P_i|) + ceil(log2 D) bits for the power
    written as P / D, P integral; None for zero.  A t-term base has at most
    comb(t - 1 + k, k) terms in its k-th power, and at most prod(E_i + 1)
    (that product stops once it passes the first bound).  For base = Q / d, Q
    integral, |P_i| is at most max |Q_i| * |Q|_1^(k - 1) and D is d^k, counted
    exactly for k = 1 or while k * (ceil(log2 |Q|_1) + ceil(log2 d)), rounded
    per factor, is at most 2 * MAX_POWER_BITS; that count stands above it.  One
    term c*x^e has the exact bounds 1, k*e and k*|e|, and k times its bits."""
    if len(base) == 1:
        [(e, c)] = base
        e = tuple([x * k for x in e]) if k != 1 else e
        d = sum(e)
        bits = (abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()
        return 1, e, d, d, k * bits
    if not base:
        return None
    exps = [e for e, _ in base]
    top = tuple(k * max(col) for col in zip(*exps))
    degrees = [sum(e) for e in exps]
    terms = math.comb(len(base) - 1 + k, k)
    if terms > 1:  # each factor of the product is at least 1
        terms = min(terms, _capped_prod((x + 1 for x in top), terms))
    den = math.lcm(*[c.denominator for _, c in base])
    nums = [abs(c.numerator) * (den // c.denominator) for _, c in base]
    total = sum(nums)
    bits = k * ((total - 1).bit_length() + (den - 1).bit_length())
    if k == 1 or 0 < bits <= 2 * MAX_POWER_BITS:  # k = 0 keeps 0: the constant 1
        bits = (max(nums) * total ** (k - 1) - 1).bit_length() + (den**k - 1).bit_length()
    return terms, top, k * min(degrees), k * max(degrees), bits


def _check_product(a, b, offset: int):
    """Raise ResourceLimitError when a * b may exceed the power budgets; else
    return its bounds, from those of a and b as ``_power_bounds`` gives them
    (None for zero), so neither need be expanded.  a * b has at most T_a * T_b
    terms; when that is over budget, also at most prod(E_i + 1), E = E_a +
    E_b, and at most the monomials of degree lo_a + lo_b to hi_a + hi_b in the
    n variables with E_i > 0.  These can be huge, so they are computed only
    then: the product stops once past T_a * T_b, and the monomial count is
    skipped when it cannot be smaller (in n >= 2 variables it exceeds the
    largest degree).  A coefficient sums at most min(T_a, T_b) products, so
    it needs at most bits_a + bits_b + ceil(log2 min(T_a, T_b)) bits."""
    if a is None or b is None:
        return None
    (ta, ea, loa, hia, bitsa), (tb, eb, lob, hib, bitsb) = a, b
    terms, top, lo, hi = ta * tb, exp_add(ea, eb), loa + lob, hia + hib
    if terms > MAX_POWER_TERMS:
        n = len(top) - top.count(0)
        dense = _capped_prod((x + 1 for x in top), terms)
        # in two or more variables the slab holds over hi monomials of degree hi
        if n == 1 or hi < terms:
            terms = min(terms, math.comb(hi + n, n) - (math.comb(lo - 1 + n, n) if lo else 0))
        terms = min(terms, dense)
    bits = (min(ta, tb) - 1).bit_length() + bitsa + bitsb
    _refuse("product", terms, bits, offset)
    return terms, top, lo, hi, bits


def _tokenize(text: str):
    """(kind, text, offset) per token, an operator its own kind, then ("end",
    "", len(text)); the matches of ``_TOKEN`` tile the text, so offsets add up."""
    digits = _digit_limit()
    toks = []
    at = 0
    for blanks, num, name, op, other in _TOKEN.findall(text):
        at += len(blanks)
        if op:
            toks.append((op, op, at))
        elif name:
            toks.append(("ident", name, at))
        elif num:
            if len(num) > digits:
                raise PolynomialSyntaxError(
                    f"integer literal of {len(num)} digits exceeds the limit of {digits}", at
                )
            toks.append(("int", num, at))
        elif other:
            raise PolynomialSyntaxError(f"unexpected character {other!r}", at)
        at += len(op or name or num)
    toks.append(("end", "", len(text)))
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

    def expr(self) -> Polynomial:
        """The sum: the signed terms of every summand merge in one
        ``from_scaled`` call."""
        pairs = []
        op = self.take()[0] if self.peek()[0] in ("+", "-") else "+"
        while True:
            summand = self.term()
            pairs += [(e, -c) for e, c in summand] if op == "-" else summand
            if self.peek()[0] not in ("+", "-"):
                return Polynomial.from_scaled(pairs, self.variables)
            op = self.take()[0]

    def term(self):
        """A product, as a term list.  Each '*' checks the product so far by
        ``_check_product`` on the factors' bounds, and the factors are expanded
        only once all of it has passed.  Bounds of one term mean single-term
        factors (a longer factor leaves a longer product): the product is the
        bounds' exponent times the coefficients."""
        base, k, bounds = self.factor()
        factors = [(base, k)]
        while self.peek()[0] == "*":
            offset = self.take()[2]
            base, k, right = self.factor()
            factors.append((base, k))
            bounds = _check_product(bounds, right, offset)
        if bounds is None:
            return []
        if len(factors) == 1 and k == 1:
            return base
        if bounds[0] == 1:
            c = _ONE
            for [(_, a)], _ in factors:
                if a is not _ONE:  # a variable's coefficient: nothing to multiply
                    c = a if c is _ONE else c * a
            return [(bounds[1], c)]
        # within the budgets: expand, left to right
        p = math.prod(Polynomial.from_scaled(f, self.variables) ** j for f, j in factors)
        return list(p.scaled.items())

    def factor(self):
        """base^k as (base, k, _power_bounds(base, k)); a power is refused at its
        exponent.  A power of one term is folded to its closed-form term, k = 1."""
        base = self.atom()
        if self.peek()[0] != "^":
            return base, 1, _power_bounds(base, 1)
        self.take()
        kind, text, offset = self.peek()
        if kind != "int":
            self.fail("integer exponent")
        self.take()
        k = int(text)
        if not base:  # zero, never refused: 0^0 is 1, any other power 0
            one = [(self.zero, _ONE)]
            return (one, 1, _power_bounds(one, 1)) if k == 0 else (base, 1, None)
        bounds = _power_bounds(base, k)
        _refuse("power", bounds[0], bounds[4], offset)
        if bounds[0] == 1:  # one term (or a zeroth power): exponent from the bounds
            c = base[0][1]
            term = [(bounds[1], c if c is _ONE else c**k)]
            return term, 1, _power_bounds(term, 1)
        return base, k, bounds

    def atom(self):
        """A number, a variable or a parenthesized sum, as a term list."""
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
            return [(self.zero, value)] if value else []
        if kind == "ident":
            self.take()
            if text not in self.variables:
                raise UnknownVariableError(text, offset)
            return [(self.units[text], _ONE)]
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
            return list(inner.scaled.items())
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
    return result
