import math
import random
import re
import sys
from fractions import Fraction

import pytest

from singspec import (
    Polynomial,
    PolynomialSyntaxError,
    ResourceLimitError,
    SingspecError,
    UnknownVariableError,
    parse_polynomial,
)
from singspec import parse
from singspec.parse import MAX_NESTING
from singspec.exact import MAX_DIMENSION, _digit_limit, exact_rational

XY = ("x", "y")


def test_basic_terms():
    p = parse_polynomial("x^2 + y^3", XY)
    assert p.terms == {(2, 0): 1, (0, 3): 1}


def test_cancellation_to_zero():
    p = parse_polynomial("2*x - 2*x", ("x",))
    assert p.terms == {}
    assert not p


def test_rational_coefficients():
    p = parse_polynomial("1/2*x + 3/4", XY)
    assert p.terms == {(1, 0): Fraction(1, 2), (0, 0): Fraction(3, 4)}


def test_precedence_and_parentheses():
    assert parse_polynomial("x + y*x^2", XY) == parse_polynomial(
        "x + (y*(x^2))", XY
    )
    assert parse_polynomial("(x + y)^2", XY) == parse_polynomial(
        "x^2 + 2*x*y + y^2", XY
    )


def test_unary_signs():
    assert parse_polynomial("-x + y", XY) == parse_polynomial("y - x", XY)
    assert parse_polynomial("-3", XY) == Polynomial(XY, {(0, 0): -3})


def test_like_terms_collected():
    p = parse_polynomial("x*y + y*x + x*y", XY)
    assert p.terms == {(1, 1): 3}


def test_unknown_variable_named_and_located():
    with pytest.raises(UnknownVariableError) as exc:
        parse_polynomial("x^2 + z", XY)
    assert exc.value.name == "z"
    assert "x^2 + z"[exc.value.offset] == "z"


def test_syntax_errors_carry_offsets():
    for text, bad, message in (
        ("x +", 3, "expected a number, variable, or '(', found end of input"),
        ("x ^ y", 4, "expected integer exponent, found 'y'"),
        ("x * * y", 4, "expected a number, variable, or '(', found '*'"),
        ("(x + y", 6, "expected ')', found end of input"),
        ("x + é", 4, "unexpected character 'é'"),
        ("x $ y", 2, "unexpected character '$'"),
        # digits outside ASCII: int() reads them, the grammar does not
        ("x^²", 2, "unexpected character '²'"),
        ("x^2+y^³", 6, "unexpected character '³'"),
        ("٣*x^2+y^3", 0, "unexpected character '٣'"),
        ("x^2+y^3١", 7, "unexpected character '١'"),
        ("1/", 2, "expected integer denominator, found end of input"),
        ("1/0", 2, "zero denominator"),
    ):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text, XY)
        assert exc.value.offset == bad
        assert str(exc.value) == f"{message} (at offset {bad})"


def test_zero_operands_pass_the_budgets(monkeypatch):
    # a zero base or factor has no terms to bound, so even a zero budget admits it
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 0)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 0)
    assert parse_polynomial("0^3", XY) == Polynomial(XY)
    assert parse_polynomial("0*(x + y)", XY) == Polynomial(XY)


def test_implicit_multiplication_rejected():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("2x", XY)
    with pytest.raises(UnknownVariableError):
        # adjacency makes one identifier, not a product
        parse_polynomial("xy", XY)


def test_power_binds_tighter_than_product():
    p = parse_polynomial("2*x^3", XY)
    assert p.terms == {(3, 0): 2}


def test_division_only_between_integer_literals():
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x/2", XY)


def test_nesting_limit():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deepest, XY) == parse_polynomial("x", XY)
    text = "x + " + "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1)
    with pytest.raises(PolynomialSyntaxError) as exc:
        parse_polynomial(text, XY)
    assert exc.value.offset == len("x + ") + MAX_NESTING


def test_dimension_limit():
    names = tuple(f"x{i}" for i in range(MAX_DIMENSION + 1))
    squares = "+".join(f"{v}^2" for v in names[:-1])
    assert len(parse_polynomial(squares, names[:-1]).terms) == MAX_DIMENSION
    # refused before the text is read
    for text in (squares, "not a polynomial"):
        with pytest.raises(ResourceLimitError) as exc:
            parse_polynomial(text, names)
        assert str(exc.value) == f"{MAX_DIMENSION + 1} variables exceed the limit of {MAX_DIMENSION}"


def test_power_budget_boundary(monkeypatch):
    # (x + y)^20: 21 terms, coefficients below 2^19
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 21)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 19)
    assert parse_polynomial("(x + y)^20", XY) == parse_polynomial("*".join(["(x + y)"] * 20), XY)
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 20)
    with pytest.raises(ResourceLimitError, match="up to 21 and coefficients up to 19 bits"):
        parse_polynomial("(x + y)^20", XY)
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 21)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 18)
    with pytest.raises(ResourceLimitError, match=r"limits of 21 terms and 18 bits \(at offset 8\)"):
        parse_polynomial("(x + y)^20", XY)


def test_power_bits_of_a_sum_are_counted_exactly():
    # each power has coefficients below 2 * 3^299, 475 bits, and the product
    # 9 + 2 * 475 = 959 (rounded per factor: 9 + 2 * 600 = 1,209, refused)
    p = parse_polynomial("(x+2*y)^300*(x+2*y)^300", XY)
    assert p == Polynomial(XY, {(600 - j, j): math.comb(600, j) * 2**j for j in range(601)})
    assert parse._power_bounds([((1, 0), Fraction(1)), ((0, 1), Fraction(2))], 300)[4] == 475
    # cancellation between factors is not counted
    with pytest.raises(ResourceLimitError, match="up to 1600 bits"):
        parse_polynomial("2^500*(1/2)^500*2^600*x", XY)


def test_power_budget_spares_monomials_and_univariate_sums():
    assert parse_polynomial("x^99999999999", ("x",)).terms == {(99999999999,): 1}
    # comb(29, 9) would refuse it; the exponent bound 20 * 9 + 1 does not
    p = parse_polynomial("(" + " + ".join(f"x^{e}" for e in range(10)) + ")^20", ("x",))
    assert len(p.terms) == 181


def test_overlong_integer_literals():
    limit = sys.get_int_max_str_digits()
    assert parse._tokenize("9" * limit)[0] == ("int", "9" * limit, 0)
    for text, offset in (("x^" + "9" * (limit + 1), 2), ("9" * (limit + 1) + "*x", 0)):
        with pytest.raises(PolynomialSyntaxError, match=f"{limit + 1} digits") as exc:
            parse_polynomial(text, XY)
        assert exc.value.offset == offset
    # with no interpreter limit (0) literals and decimal exponents keep the
    # default limit of 4300 digits
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(PolynomialSyntaxError, match="4301 digits exceeds the limit of 4300"):
            parse_polynomial("9" * 4301 + "*x", XY)
        with pytest.raises(ValueError, match="4301 exceeds the limit of 4300"):
            exact_rational("1e4301")
    finally:
        sys.set_int_max_str_digits(limit)


def test_monomial_products_match_polynomial_multiplication():
    # a product of single-term factors is built in closed form; it must be
    # the product Polynomial.__mul__ gives, whatever the order of the factors
    rng = random.Random(4747)
    names = ("x", "y", "z")
    for _ in range(300):
        nvars = rng.randint(1, 3)
        variables = names[:nvars]
        texts, expected = [], Polynomial(variables, {(0,) * nvars: 1})
        for _ in range(rng.randint(2, 6)):
            if rng.random() < 0.4:
                c = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 9))
                texts.append(f"({c})" if c < 0 else str(c))
                factor = Polynomial(variables, {(0,) * nvars: c})
            else:
                v, k = rng.choice(variables), rng.randint(1, 3)
                texts.append(v if k == 1 and rng.random() < 0.5 else f"{v}^{k}")
                factor = Polynomial.variable(variables, v) ** k
            expected = expected * factor
        text = "*".join(texts)
        assert parse_polynomial(text, variables) == expected, text
    assert parse_polynomial("x*x", XY) == Polynomial(XY, {(2, 0): 1})
    assert parse_polynomial("x*2*y*x*3/4", XY) == Polynomial(XY, {(2, 1): Fraction(3, 2)})


def test_product_budget_boundary(monkeypatch):
    # terms: min(3 * 2, 3 * 3 box, 7 monomials of degree 2..3) = 6;
    # bits: 2 + 0 + ceil(log2 min(3, 2)) = 3 (the product has 5 terms, 2 bits)
    text = "(x + 2*y + 3*x*y)*(x - y)"
    expected = parse_polynomial("x^2 + x*y - 2*y^2 + 3*x^2*y - 3*x*y^2", XY)
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 6)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 3)
    assert parse_polynomial(text, XY) == expected
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 5)
    refused = r"product with term count up to 6 .* \(at offset 17\)"
    with pytest.raises(ResourceLimitError, match=refused):
        parse_polynomial(text, XY)
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 6)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 2)
    with pytest.raises(ResourceLimitError, match="coefficients up to 3 bits"):
        parse_polynomial(text, XY)
    # homogeneous quadrics: 9 term products, but only the 5 monomials of degree 4
    square = "(x^2 + x*y + y^2)*(x^2 + x*y + y^2)"
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 5)
    monkeypatch.setattr(parse, "MAX_POWER_BITS", 10)
    expected = parse_polynomial("x^4 + 2*x^3*y + 3*x^2*y^2 + 2*x*y^3 + y^4", XY)
    assert parse_polynomial(square, XY) == expected
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 4)
    with pytest.raises(ResourceLimitError, match="product with term count up to 5 "):
        parse_polynomial(square, XY)
    # the slab counts the monomials in the variables the factors contain, so
    # a variable no factor contains does not change the bound
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 5)
    for variables in (XY, ("x", "y", "z")):
        expected = parse_polynomial("x^4 + 4*x^3*y + 6*x^2*y^2 + 4*x*y^3 + y^4", variables)
        assert parse_polynomial("(x+y)^2*(x+y)^2", variables) == expected


def _size_bits(c):
    """ceil(log2 |numerator|) + ceil(log2 denominator)."""
    return (abs(c.numerator) - 1).bit_length() + (c.denominator - 1).bit_length()


def _refuse_power(base, k, offset):
    """Refuse base^k, a Polynomial, as the parser does: by its ``_power_bounds``."""
    bounds = parse._power_bounds(list(base.scaled.items()), k)
    parse._refuse("power", bounds[0], bounds[4], offset)


def test_power_budgets_bound_the_expansion(monkeypatch):
    # with either limit one below the true size of base^k, the closed-form
    # bound must refuse the power
    rng = random.Random(9091)
    names = ("x", "y", "z")
    for _ in range(60):
        nvars = rng.randint(1, 3)
        base = Polynomial(
            names[:nvars],
            {
                tuple(rng.randint(0, 3) for _ in range(nvars)): Fraction(
                    rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)
                )
                for _ in range(rng.randint(1, 4))
            },
        )
        k = rng.randint(1, 7)
        power = base ** k
        terms = len(power.terms)
        bits = max(_size_bits(c) for c in power.terms.values())
        monkeypatch.setattr(parse, "MAX_POWER_BITS", 10**9)
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", terms - 1)
        with pytest.raises(ResourceLimitError):
            _refuse_power(base, k, 0)
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", 10**9)
        monkeypatch.setattr(parse, "MAX_POWER_BITS", bits - 1)
        with pytest.raises(ResourceLimitError):
            _refuse_power(base, k, 0)


def test_product_budgets_bound_the_expansion(monkeypatch):
    # the bounds _check_product chains over a product of powers, none of them
    # expanded, hold for the expanded product: every exponent, degree and
    # size, and with either limit one below its true size the last '*' refuses
    rng = random.Random(5581)
    names = ("x", "y", "z")

    def draw(nvars):
        return Polynomial(
            names[:nvars],
            {
                tuple(rng.randint(0, 4) for _ in range(nvars)): Fraction(
                    rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 6)
                )
                for _ in range(rng.randint(1, 5))
            },
        )

    for _ in range(100):
        nvars = rng.randint(1, 3)
        factors = [(draw(nvars), rng.randint(1, 2)) for _ in range(rng.randint(2, 3))]
        product = factors[0][0] ** factors[0][1]
        for base, k in factors[1:]:
            product = product * base**k
        if not product:
            continue
        terms = len(product.terms)
        bits = max(_size_bits(c) for c in product.terms.values())
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", 10**9)
        monkeypatch.setattr(parse, "MAX_POWER_BITS", 10**9)
        bounds, *middle, last = [parse._power_bounds(list(b.scaled.items()), k) for b, k in factors]
        for right in middle:
            bounds = parse._check_product(bounds, right, 0)
        _, top, lo, hi, _ = parse._check_product(bounds, last, 0)
        exps = list(product.terms)
        assert all(t >= max(col) for t, col in zip(top, zip(*exps)))
        assert lo <= min(map(sum, exps)) and hi >= max(map(sum, exps))
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", terms - 1)
        with pytest.raises(ResourceLimitError):
            parse._check_product(bounds, last, 0)
        monkeypatch.setattr(parse, "MAX_POWER_TERMS", 10**9)
        monkeypatch.setattr(parse, "MAX_POWER_BITS", bits - 1)
        with pytest.raises(ResourceLimitError):
            parse._check_product(bounds, last, 0)


def test_refused_product_expands_no_factor(monkeypatch):
    # each power below is within the power budget, their product is not: it
    # is refused at its first '*' from closed-form bounds, with no Polynomial
    # power or product ever computed
    def refuse(*args):
        raise AssertionError("a factor was expanded")

    monkeypatch.setattr(Polynomial, "__pow__", refuse)
    monkeypatch.setattr(Polynomial, "__mul__", refuse)
    for text, offset in (
        ("(x+y+z)^40*(x+y+z)^40*(x+y+z)^40", 10),
        ("x^2 + 3*(x - y)^400*(x + z)^400*(x - 2*y)", 19),
        ("(x+y+z)^30*x*(x+y+z)^30", 12),
    ):
        with pytest.raises(ResourceLimitError) as exc:
            parse_polynomial(text, ("x", "y", "z"))
        assert str(exc.value).startswith("product with "), text
        assert str(exc.value).endswith(f"(at offset {offset})"), text


# -- term lists, against public Polynomial arithmetic -------------------------------

_LITERAL = re.compile(r"\^(\d+)|(\d+)/(\d+)|(\d+)")
_UNARY_PLUS = re.compile(r"(^|\()\+")


def _evaluated(text, variables):
    """``text`` evaluated with public arithmetic: ``Polynomial.variable``,
    ``+``, ``*`` and ``**``, literals as Fractions (``a/b`` as one literal)."""

    def literal(m):
        k, num, den, n = m.groups()
        return f"**{k}" if k else f"F({num}, {den})" if num else f"F({n})"

    names = {v: Polynomial.variable(variables, v) for v in variables}
    python = _UNARY_PLUS.sub(r"\1", _LITERAL.sub(literal, text))  # Polynomial has no unary +
    value = eval(python, {"F": Fraction, **names})
    return Polynomial(variables) + value  # a number lifts to a constant


def _random_text(rng, variables, depth=0, summands=1):
    """A random expression of the grammar with at least ``summands`` terms.
    At the top level a third of the atoms are parenthesized sums of two or
    more terms, so products mix single terms with multi-term factors and
    their powers, as in ``2*x*(x - y)^2*3/4*y``; the atoms of those sums are
    single terms, so every expansion stays within the budgets."""

    def atom():
        if depth == 0 and rng.random() < 1 / 3:
            return f"({_random_text(rng, variables, 1, 2)})"
        roll = rng.random()
        if roll < 0.2:
            return str(rng.randint(0, 9))
        if roll < 0.4:
            return f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
        return rng.choice(variables)

    def factor():
        base = atom()
        return f"{base}^{rng.randint(0, 3)}" if rng.random() < 0.4 else base

    def term():
        return "*".join(factor() for _ in range(rng.randint(1, 3)))

    text = rng.choice(("", "-", "+")) + term()
    for _ in range(rng.randint(summands - 1, 2)):
        text += rng.choice((" + ", " - ")) + term()
    return text


SINGLE_TERM_SEEDS = (
    "3/4", "0", "0/5", "-0", "0^0", "(0)^0", "(0)^3", "0*x", "x*0", "x^2*(0)",
    "(0/5)*(x + y)", "x", "(x)", "((x))", "+x", "-(x)", "(3/4)", "(3/4)^2",
    "(-x)^3", "-3/4*x^2*y", "(2*x*y^2)^3", "x*y*x", "1/3*x*3", "x^0",
    "(x*y)^0", "(x + y)^0", "(x + y)^0*x", "x*(x + y)^0", "(x + y - y)^3",
    "(x + x)*y", "2*(x + y)*3/4", "(x^2*y)*(x + y)", "(x + y)*(2*x)",
    "-(x + y)^2*(1/2*y)", "x - x", "(x - x)^2", "(x - x)*y", "-x - y",
    "x^2 + x^2 - 2*x^2 + y",
    # mixed products: single terms around multi-term factors and their powers
    "2*x*(x - y)^2*3/4*y", "(x - y)*(x + y)", "3*(x + 1/2)^3*y^2*2/3",
    "-(x - y)^2*5*(x + 2*y)*x", "(2*x + 3*y)^2*0*(x - y)", "x*(x + y)*y*(x - y)^0*7",
    "((x + y)^2 - x^2)*(1/3*x - y)^2", "1/2*(x + y) - (x + y)*1/2 + (x - y)^2*y",
)


def test_single_terms_match_polynomial_arithmetic():
    # every operand is a term list, single terms included; the parse must be
    # the Polynomial that public arithmetic builds
    cases = [(text, XY) for text in SINGLE_TERM_SEEDS]
    rng = random.Random(6262)
    names = ("x", "y", "z")
    for _ in range(400):
        variables = names[: rng.randint(1, 3)]
        cases.append((_random_text(rng, variables), variables))
    for text, variables in cases:
        got, want = parse_polynomial(text, variables), _evaluated(text, variables)
        assert type(got) is Polynomial, text
        assert got == want, text
        assert got.scaled == want.scaled, text
        assert got.variables == want.variables, text


def test_every_factor_carries_the_bounds_of_its_operand(monkeypatch):
    # what factor returns, a folded power of one term included, is bounded
    # by the closed form of the term list it holds, not of the power it came from
    factor = parse._Parser.factor

    def checked(self):
        operand, k, bounds = factor(self)
        assert bounds == parse._power_bounds(operand, k), (operand, k, bounds)
        return operand, k, bounds

    monkeypatch.setattr(parse._Parser, "factor", checked)
    rng = random.Random(4807)
    texts = [*SINGLE_TERM_SEEDS, "3^300*3^300*x", "(3*x)^300*(3*y)^300", "(-2/3*x*y)^7",
             "(x + y)^0*(3/4)^0", "(2*x - 2*x)^5"]
    texts += [_random_text(rng, XY) for _ in range(200)]
    for text in texts:
        assert parse_polynomial(text, XY) == _evaluated(text, XY), text


def test_single_term_budgets_refuse_as_polynomials_do(monkeypatch):
    # a single term meets the budgets by the closed form of any term list, so
    # it is refused with the text its _power_bounds give, at its exponent or its '*'
    limits = f"limits of {parse.MAX_POWER_TERMS} terms and {parse.MAX_POWER_BITS} bits"
    two_x = Polynomial(XY, {(1, 0): 2})
    for text, what, bits, offset, operands in (
        ("2^1001*x", "power", 1001, 2, (Polynomial(XY, {(0, 0): 2}), 1001)),
        ("(2)^1001", "power", 1001, 4, (Polynomial(XY, {(0, 0): 2}), 1001)),
        ("(2*x)^1001", "power", 1001, 6, (two_x, 1001)),
        ("(x + x)^1001", "power", 1001, 8, (two_x, 1001)),
        ("-(2*x)^1001 + y", "power", 1001, 7, (two_x, 1001)),
        ("(2^500)*(2^501)", "product", 1001, 7, None),
        ("2^500*x*2^501*y", "product", 1001, 7, None),
        ("(2*x)^500*(2*y)^501", "product", 1001, 9, None),
        # no cancellation between factors: 2^500*(1/2)^500 counts 1,000 bits
        ("2^500*(1/2)^500*2^600*x", "product", 1600, 15, None),
    ):
        with pytest.raises(ResourceLimitError) as exc:
            parse_polynomial(text, XY)
        message = (f"{what} with term count up to 1 and coefficients up to {bits} bits "
                   f"exceeds the {limits} (at offset {offset})")
        assert str(exc.value) == message, text
        if operands is not None:
            base, k = operands
            with pytest.raises(ResourceLimitError) as old:
                _refuse_power(base, k, offset)
            assert str(old.value) == message, text
    # one bit below each of those limits, the same shapes pass; a folded power
    # of one term carries the bits of its coefficient (3^300 has 476), not
    # those of its closed form (600)
    for text in ("2^1000*x", "(2*x)^1000", "(x + x)^1000", "(2^500)*(2^500)", "2^500*x*2^500*y",
                 "3^300*3^300*x", "(3*x)^300*(3*y)^300"):
        assert parse_polynomial(text, XY) == _evaluated(text, XY), text
    # with no term budget, every single-term power and product refuses at its
    # operator, and the zero literal still passes
    monkeypatch.setattr(parse, "MAX_POWER_TERMS", 0)
    for text, what, offset in (("x^2", "power", 2), ("3/4*y", "product", 3),
                               ("(x)*(y)", "product", 3)):
        with pytest.raises(ResourceLimitError) as exc:
            parse_polynomial(text, XY)
        assert str(exc.value).startswith(f"{what} with term count up to 1 "), text
        assert str(exc.value).endswith(f"(at offset {offset})"), text
    assert parse_polynomial("0^0", XY) == Polynomial(XY, {(0, 0): 1})
    assert parse_polynomial("(0)^5*0", XY) == Polynomial(XY)


def _loop_tokenize(text):
    """The character loop that ``parse._tokenize`` replaced, kept as its oracle."""
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
        if ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise PolynomialSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


def _lexed(tokenize, text):
    try:
        return tokenize(text)
    except PolynomialSyntaxError as exc:
        return type(exc), str(exc), exc.offset


def test_token_pattern_agrees_with_the_character_loop():
    # blanks, operators, other ASCII signs, ASCII and other letters and digits,
    # control characters, and now and then a literal of about the digit limit
    limit = _digit_limit()
    alphabet = " \t\r\n+-*/^()" + "axyZ_09%." + "é٣１²" + "\x0b\x0c\x00"
    rng = random.Random(3307)
    for _ in range(200_000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 12)))
        if rng.random() < 0.001:
            at = rng.randint(0, len(text))
            text = text[:at] + "7" * rng.randint(limit - 1, limit + 1) + text[at:]
        assert _lexed(parse._tokenize, text) == _lexed(_loop_tokenize, text), repr(text)
        # ``_NAME`` accepts exactly the ASCII identifiers
        assert bool(parse._NAME.fullmatch(text)) == (text.isidentifier() and text.isascii())


def _random_name(rng) -> str:
    head = "abcxyzXY_"
    return rng.choice(head) + "".join(rng.choices(head + "0129", k=rng.randint(0, 3)))


def test_str_parses_back_over_any_variable_tuple():
    rng = random.Random(3401)
    for _ in range(20_000):
        k, names = rng.randint(1, 4), set()
        while len(names) < k:
            names.add(_random_name(rng))
        variables = tuple(rng.sample(sorted(names), k))
        terms = {
            tuple(rng.randint(0, 7) for _ in variables): Fraction(
                rng.randint(-40, 40), rng.randint(1, 12)
            )
            for _ in range(rng.randint(0, 6))
        }
        p = Polynomial(variables, terms)
        assert parse_polynomial(str(p), p.variables) == p, (variables, terms)


def test_constructor_and_parser_refuse_the_same_tuples():
    many = [f"x{i}" for i in range(MAX_DIMENSION + 1)]
    for names, error, message in (
        # ``Polynomial`` printed "x^3 + 1y^2" here, which does not parse
        (("1y", "x"), SingspecError, "bad variable name '1y'"),
        (("x", "x y", "1y"), SingspecError, "bad variable name 'x y'"),
        (("x", "é"), SingspecError, "bad variable name 'é'"),
        (("x", ""), SingspecError, "bad variable name ''"),
        (("x", 1), SingspecError, "bad variable name 1"),
        (("x", b"y"), SingspecError, "bad variable name b'y'"),
        (("x", "y", "x"), SingspecError, "duplicate variable names in 'x,y,x'"),
        (many, ResourceLimitError, f"{MAX_DIMENSION + 1} variables exceed the limit of 32"),
        # the count is checked before the names
        ([*many[:-1], "1y"], ResourceLimitError, "33 variables exceed the limit of 32"),
    ):
        for build in (lambda: Polynomial(names, {}), lambda: parse_polynomial("x", names)):
            with pytest.raises(error) as exc:
                build()
            assert type(exc.value) is error and str(exc.value) == message, names
    assert Polynomial(many[:-1], {}).variables == tuple(many[:-1])
    assert parse_polynomial("x^2", ["x", "_a", "Y_2"]).variables == ("x", "_a", "Y_2")
