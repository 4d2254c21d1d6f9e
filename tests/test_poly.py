import itertools
import random
from fractions import Fraction

import pytest

from singspec import (
    EquivClass,
    FracPoly,
    InconsistentWeightsError,
    LengthMismatchError,
    Polynomial,
    UnderdeterminedWeightsError,
    WeightOutOfRangeError,
    as_weights,
    infer_weights,
    is_weighted_homogeneous,
    jacobian_generators,
    parse_polynomial,
    weighted_degree,
)
from singspec import poly
from singspec.exact import shown

XY = ("x", "y")


def random_polynomial(rng, variables, max_terms=4, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
    return Polynomial(variables, terms)


def test_construction_merges_and_drops_zeros():
    p = Polynomial(XY, [((1, 0), 2), ((1, 0), -2), ((0, 1), Fraction(1, 3))])
    assert p.terms == {(0, 1): Fraction(1, 3)}


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        Polynomial(XY, {(1,): 1})
    with pytest.raises(LengthMismatchError, match=r"^1 weights for 2 variables$"):
        as_weights(["1/2"], 2)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match=r"^negative exponent in \(1, -1\)$"):
        Polynomial(XY, {(1, -1): 1})


def test_immutable():
    p = Polynomial.variable(XY, "x")
    with pytest.raises(AttributeError):
        p.terms = {}


def test_ring_axioms_randomized():
    rng = random.Random(1405)
    for _ in range(200):
        a = random_polynomial(rng, XY)
        b = random_polynomial(rng, XY)
        c = random_polynomial(rng, XY)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + Polynomial(XY) == a
        assert a * Polynomial(XY, {(0, 0): 1}) == a


def test_power_matches_repeated_product():
    rng = random.Random(77)
    for _ in range(20):
        a = random_polynomial(rng, XY, max_terms=3, max_exp=2)
        prod = Polynomial(XY, {(0, 0): 1})
        for k in range(5):
            assert a**k == prod
            prod = prod * a


def test_scalar_lifting():
    x = Polynomial.variable(XY, "x")
    assert 2 * x + 1 == Polynomial(XY, {(1, 0): 2, (0, 0): 1})
    assert (1 - x) * (1 + x) == 1 - x * x


def test_render_parse_round_trip():
    rng = random.Random(90)
    for _ in range(150):
        p = random_polynomial(rng, XY)
        assert parse_polynomial(str(p), XY) == p


def test_render_golden():
    p = Polynomial(XY, {(2, 0): 1, (0, 3): -1, (0, 0): Fraction(1, 2)})
    assert str(p) == "-y^3 + x^2 + 1/2"
    assert str(Polynomial(XY)) == "0"
    # signs and magnitudes come from the ints numerator and denominator
    p = Polynomial(XY, {(2, 0): Fraction(-3, 2), (1, 1): -1, (0, 0): Fraction(-5, 7)})
    assert str(p) == "-3/2*x^2 - x*y - 5/7"
    assert str(Polynomial(XY, {(1, 0): -1, (0, 0): Fraction(-12, 8)})) == "-x - 3/2"
    assert str(Polynomial(XY, {(0, 1): Fraction(7, 3), (0, 0): -1})) == "7/3*y - 1"
    # the int side: FracPoly values and EquivClass multiplicities are ints
    assert str(FracPoly({Fraction(1, 2): -3, Fraction(1): -1, Fraction(2): 2})) == (
        "-3*t^(1/2) - t + 2*t^2"
    )
    assert repr(EquivClass({(1, 1, Fraction(1, 2)): -2, (0, 0, 0): -1})) == (
        "EquivClass({(0,0,0): -1, (1,1,1/2): -2})"
    )


def test_partial_derivatives():
    f = parse_polynomial("x^2*y + 3*y^2", XY)
    fx, fy = jacobian_generators(f)
    assert fx == parse_polynomial("2*x*y", XY)
    assert fy == parse_polynomial("x^2 + 6*y", XY)
    assert jacobian_generators(Polynomial(XY, {(0, 0): 5})) == (
        Polynomial(XY),
        Polynomial(XY),
    )


def _degree_reference(exponents, weights):
    """The weighted degree as a sum of Fraction products."""
    return sum((Fraction(w) * e for e, w in zip(exponents, weights)), Fraction(0))


# mixed denominators, up to 5005 = 5 * 7 * 11 * 13
_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 35, 143, 1001, 5005)


def _random_weights(rng, n):
    """n weights of any sign, zeros included, over mixed denominators."""
    return tuple(Fraction(rng.randint(-12, 12), rng.choice(_DENOMINATORS)) for _ in range(n))


def test_weighted_degree_values():
    w = as_weights(("1/2", "1/3"))
    assert weighted_degree((2, 0), w) == 1
    assert weighted_degree((0, 0), w) == 0
    assert weighted_degree((1, 1), w) == Fraction(5, 6)
    with pytest.raises(LengthMismatchError, match="^exponent vector of length 1 against 2 weights$"):
        weighted_degree((1,), w)
    assert weighted_degree((), ()) == 0
    assert weighted_degree((3, 5), ("-1/5005", 0)) == Fraction(-3, 5005)
    # seeded: zero and negative weights, zero exponents, denominators up to 5005
    rng = random.Random(7301)
    for _ in range(300):
        n = rng.randint(1, 5)
        ws = _random_weights(rng, n)
        e = tuple(rng.choice((0, 0, rng.randint(0, 40))) for _ in range(n))
        got = weighted_degree(e, ws)
        assert type(got) is Fraction and got == _degree_reference(e, ws), (e, ws)
        assert weighted_degree(list(e), list(map(str, ws))) == got
    # a float or a bool is refused on either side, under a zero exponent too
    for e, ws in (((1.0, 0), w), ((True, 0), w), ((1, 0), (0.5, w[1])),
                  ((1, 0), (True, w[1])), ((1, 0), (w[0], 0.25)), ((1, 0), (w[0], False))):
        with pytest.raises(TypeError):
            weighted_degree(e, ws)


def test_weighted_degree_additive():
    rng = random.Random(3)
    w = as_weights((Fraction(2, 7), Fraction(1, 5)))
    for _ in range(100):
        m1 = (rng.randint(0, 9), rng.randint(0, 9))
        m2 = (rng.randint(0, 9), rng.randint(0, 9))
        s = tuple(a + b for a, b in zip(m1, m2))
        assert weighted_degree(s, w) == weighted_degree(m1, w) + weighted_degree(m2, w)
    for _ in range(200):
        n = rng.randint(1, 4)
        ws = _random_weights(rng, n)
        m1 = tuple(rng.randint(0, 9) for _ in range(n))
        m2 = tuple(rng.randint(0, 9) for _ in range(n))
        s = tuple(a + b for a, b in zip(m1, m2))
        assert weighted_degree(s, ws) == weighted_degree(m1, ws) + weighted_degree(m2, ws)
        assert weighted_degree(s, ws) == _degree_reference(s, ws)


def test_is_weighted_homogeneous(monkeypatch):
    f = parse_polynomial("x^2 + y^3", XY)
    assert is_weighted_homogeneous(f, ("1/2", "1/3"))
    assert not is_weighted_homogeneous(f, ("1/2", "1/2"))
    g = parse_polynomial("x^3 + x*y + y^3", XY)
    assert not is_weighted_homogeneous(g, ("1/3", "1/3"))
    assert is_weighted_homogeneous(Polynomial(XY), ("1/2", "1/2"))
    xyzw = ("x", "y", "z", "w")
    bp = parse_polynomial("x^5 + y^7 + z^11 + w^13", xyzw)
    assert is_weighted_homogeneous(bp, ("1/5", "1/7", "1/11", "1/13"))
    assert not is_weighted_homogeneous(bp, ("1/5", "1/7", "1/11", "1/12"))
    with pytest.raises(LengthMismatchError):
        is_weighted_homogeneous(f, ("1/2",))
    with pytest.raises(TypeError):
        is_weighted_homogeneous(f, (0.5, "1/3"))
    # the degrees are read on integers, never through weighted_degree
    monkeypatch.setattr(poly, "weighted_degree", None)
    # seeded: the terms of degree 1 in a box, some of them plus one term drawn
    # at random, against the Fraction-sum reference
    rng = random.Random(2718)
    names = ("x", "y", "z")
    for _ in range(60):
        n = rng.randint(1, 3)
        ws = tuple(Fraction(rng.randint(1, q - 1), q) for q in
                   (rng.choice(_DENOMINATORS[1:8]) for _ in range(n)))
        box = list(itertools.product(range(14), repeat=n))
        ones = [e for e in box if _degree_reference(e, ws) == 1]
        terms = rng.sample(ones, min(len(ones), rng.randint(1, 3)))
        if rng.random() < 0.5:
            terms.append(rng.choice(box))
        f = Polynomial(names[:n], {e: rng.randint(1, 5) for e in terms})
        want = all(_degree_reference(e, ws) == 1 for e in f.terms)
        assert is_weighted_homogeneous(f, ws) == want, (terms, ws)


def test_weight_range_enforced():
    with pytest.raises(WeightOutOfRangeError):
        as_weights((Fraction(1, 2), Fraction(1)))
    with pytest.raises(WeightOutOfRangeError):
        as_weights((Fraction(0), Fraction(1, 2)))
    # 10^4300 has 4,301 digits, past what str converts: the message gives its bits
    with pytest.raises(WeightOutOfRangeError, match=r"^weight <14285-bit number> outside"):
        as_weights((10**4300,))


def test_shown_prints_what_str_prints_and_else_the_bits():
    assert [shown(x) for x in (0, -7, Fraction(-3, 4))] == ["0", "-7", "-3/4"]
    # up to 200 bits (about 60 digits) the number itself, past them its size
    assert shown(2**200 - 1) == str(2**200 - 1)
    assert shown(Fraction(-(2**200 - 1), 2**200 - 3)) == str(Fraction(-(2**200 - 1), 2**200 - 3))
    assert shown(2**200) == "<201-bit number>"
    assert shown(Fraction(1, 2**200)) == "<201-bit number>"
    assert shown(10**4299) == "<14281-bit number>"  # 4,300 digits: str would convert it
    assert shown(-(10**4300)) == "<14285-bit number>"
    assert shown(Fraction(1, 10**4300 + 1)) == "<14285-bit number>"


def test_infer_weights_unique_solutions():
    assert infer_weights(parse_polynomial("x^2 + y^3", XY)) == (
        Fraction(1, 2),
        Fraction(1, 3),
    )
    # two equations, two unknowns, rank 2
    assert infer_weights(parse_polynomial("x^2*y + x*y^2", XY)) == (
        Fraction(1, 3),
        Fraction(1, 3),
    )


def test_infer_weights_makes_homogeneous():
    rng = random.Random(52)
    for _ in range(50):
        a = rng.randint(2, 6)
        b = rng.randint(2, 6)
        f = parse_polynomial(f"x^{a} + y^{b}", XY)
        w = infer_weights(f)
        assert is_weighted_homogeneous(f, w)


def test_infer_weights_error_cases():
    with pytest.raises(UnderdeterminedWeightsError):
        infer_weights(parse_polynomial("x^2", XY))
    with pytest.raises(InconsistentWeightsError):
        infer_weights(parse_polynomial("x^2 + x^3", XY))
    # unique solution but w = 1 is out of range
    with pytest.raises(WeightOutOfRangeError):
        infer_weights(parse_polynomial("x + y^2", XY))


def _gauss_jordan_weights(f):
    """Exact rational Gauss-Jordan elimination on the exponent matrix: the
    oracle for the integer elimination in ``infer_weights``."""
    n = len(f.variables)
    rows = [[Fraction(x) for x in e] + [Fraction(1)] for e in sorted(f.terms)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
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
    solution = [Fraction(0)] * n
    for i in range(n):
        col = next(j for j in range(n) if rows[i][j])
        solution[col] = rows[i][n]
    return as_weights(solution, n)


def _weights_or_error(solve, f):
    try:
        return solve(f)
    except (InconsistentWeightsError, UnderdeterminedWeightsError, WeightOutOfRangeError) as exc:
        return type(exc), str(exc)


def test_infer_weights_matches_rational_elimination():
    rng = random.Random(16)
    outcomes = set()
    for _ in range(400):
        variables = tuple(f"x{i}" for i in range(rng.randint(1, 5)))
        terms = {
            tuple(rng.randint(0, 6) for _ in variables): 1 for _ in range(rng.randint(1, 6))
        }
        f = Polynomial(variables, terms)
        expected = _weights_or_error(_gauss_jordan_weights, f)
        assert _weights_or_error(infer_weights, f) == expected, f
        outcomes.add(expected[0] if isinstance(expected[0], type) else "ok")
    assert outcomes == {
        "ok", InconsistentWeightsError, UnderdeterminedWeightsError, WeightOutOfRangeError
    }
