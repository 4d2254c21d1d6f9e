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
Parentheses nest at most ``MAX_NESTING`` deep, so that no input exhausts the
interpreter's recursion limit.
"""

from fractions import Fraction

from .errors import PolynomialSyntaxError, UnknownVariableError
from .poly import Polynomial

_OPS = set("+-*/^()")

MAX_NESTING = 100


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
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
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        result = sign * self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            result = result + t if op == "+" else result - t
        return result

    def term(self) -> Polynomial:
        result = self.factor()
        while self.peek()[0] == "*":
            self.take()
            result = result * self.factor()
        return result

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text, offset = self.peek()
            if kind != "int":
                self.fail("integer exponent")
            self.take()
            return base ** int(text)
        return base

    def atom(self) -> Polynomial:
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
            return Polynomial.constant(self.variables, value)
        if kind == "ident":
            self.take()
            if text not in self.variables:
                raise UnknownVariableError(text, offset)
            return Polynomial.variable(self.variables, text)
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
            return inner
        self.fail("a number, variable, or '('")


def parse_polynomial(text: str, variables) -> Polynomial:
    """Parse ``text`` into a Polynomial over the given ordered variables."""
    p = _Parser(text, variables)
    result = p.expr()
    if p.peek()[0] != "end":
        p.fail("end of input")
    return result
