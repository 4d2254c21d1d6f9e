from fractions import Fraction

import pytest

from singspec import (
    Polynomial,
    PolynomialSyntaxError,
    UnknownVariableError,
    parse_polynomial,
)
from singspec.parse import MAX_NESTING

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
    assert parse_polynomial("-3", XY) == Polynomial.constant(XY, -3)


def test_like_terms_collected():
    p = parse_polynomial("x*y + y*x + x*y", XY)
    assert p.terms == {(1, 1): 3}


def test_unknown_variable_named_and_located():
    with pytest.raises(UnknownVariableError) as exc:
        parse_polynomial("x^2 + z", XY)
    assert exc.value.name == "z"
    assert "x^2 + z"[exc.value.offset] == "z"


def test_syntax_errors_carry_offsets():
    for text, bad in (("x +", 3), ("x ^ y", 4), ("x * * y", 4), ("(x + y", 6)):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text, XY)
        assert exc.value.offset == bad


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
