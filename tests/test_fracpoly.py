import random
from fractions import Fraction

import pytest

from singspec import FracPoly, sp_twist

F = Fraction


def random_fracpoly(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        a = F(rng.randint(-12, 12), rng.randint(1, 6))
        terms[a] = terms.get(a, 0) + rng.randint(-4, 4)
    return FracPoly(terms)


def test_construction_merges_and_drops_zeros():
    s = FracPoly([(F(1, 2), 1), (F(2, 4), 2), (F(1, 3), 0)])
    assert s.terms == {F(1, 2): 3}


def test_integer_coefficients_enforced():
    with pytest.raises(TypeError):
        FracPoly({F(1, 2): F(1, 2)})


def test_immutable():
    s = FracPoly({F(1, 2): 1})
    with pytest.raises(AttributeError):
        s.terms = {}


def test_ring_axioms_randomized():
    rng = random.Random(630)
    zero = FracPoly()
    for _ in range(200):
        a = random_fracpoly(rng)
        b = random_fracpoly(rng)
        c = random_fracpoly(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a - a == zero


def test_multiplication_adds_exponents():
    s = FracPoly({F(1, 2): 1}) * FracPoly({F(1, 3): 2})
    assert s.terms == {F(5, 6): 2}


def test_twist_by_zero_negates_exponents():
    s = FracPoly({F(1, 2): 1, F(1): 2})
    assert sp_twist(s, 0).terms == {F(-1, 2): 1, F(-1): 2}
    assert sp_twist(FracPoly(), 0) == FracPoly()


def test_twist_reads_n_as_an_exact_int():
    s = FracPoly({F(1, 3): 1})
    # unchecked, a float n is truncated (2.5 gives t^2, not t^(13/6)) and True reads as 1
    for n in (2.5, 2.0, True):
        with pytest.raises(TypeError):
            sp_twist(s, n)
    assert sp_twist(s, F(2)) == sp_twist(s, 2) == FracPoly({F(5, 3): 1})


def test_twist_involutive():
    rng = random.Random(9)
    for _ in range(100):
        s = random_fracpoly(rng)
        assert sp_twist(sp_twist(s, 0), 0) == s


def test_coefficient_sum_and_exponents():
    s = FracPoly({F(5, 6): 1, F(7, 6): 1, F(0): -3})
    assert s.coefficient_sum() == -1
    assert tuple(k for k, _ in s.items()) == (F(0), F(5, 6), F(7, 6))


def test_render_golden():
    assert str(FracPoly()) == "0"
    assert str(FracPoly({F(0): 3})) == "3"
    assert str(FracPoly({F(1): 1})) == "t"
    assert str(FracPoly({F(2): -1})) == "-t^2"
    assert str(FracPoly({F(5, 6): 1, F(7, 6): 1})) == "t^(5/6) + t^(7/6)"
    assert str(FracPoly({F(-1, 2): 2, F(3, 2): -4})) == "2*t^(-1/2) - 4*t^(3/2)"
    assert str(FracPoly({F(0): 1, F(2, 3): -1})) == "1 - t^(2/3)"


def test_render_ascending_exponents():
    rng = random.Random(44)
    for _ in range(50):
        s = random_fracpoly(rng)
        text = str(s)
        if not s:
            assert text == "0"
            continue
        # rebuild exponent order from the rendering
        seen = [text.index(f"t^({a.numerator}/{a.denominator})")
                for a, _ in s.items() if a.denominator != 1 and a != 1]
        assert seen == sorted(seen)


def test_int_lifts_in_equality():
    assert FracPoly({F(0): 5}) == 5
    assert FracPoly() == 0
    assert FracPoly({F(1): 1}) != 1
