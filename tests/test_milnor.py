import itertools
import random
from fractions import Fraction

import pytest

from singspec import (
    ConsistencyError,
    NonIsolatedSingularityError,
    NotWeightedHomogeneousError,
    Polynomial,
    buchberger,
    is_isolated,
    jacobian_generators,
    milnor_basis,
    milnor_number,
    parse_polynomial,
    reduce_modulo,
)
from singspec import kernel

XY = ("x", "y")


def random_polynomial(rng, variables, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
    return Polynomial(variables, terms)


def s_polynomial(f, g):
    lf = kernel.leading_exponent(f.terms)
    lg = kernel.leading_exponent(g.terms)
    lcm = kernel.exp_lcm(lf, lg)
    mf = Polynomial.monomial(f.variables, kernel.exp_sub(lcm, lf), 1 / f.terms[lf])
    mg = Polynomial.monomial(g.variables, kernel.exp_sub(lcm, lg), 1 / g.terms[lg])
    return mf * f - mg * g


def assert_is_reduced_groebner(gb, generators):
    leads = gb.lead_exponents
    # monic
    for p, le in zip(gb.polynomials, leads):
        assert p.terms[le] == 1
    # inter-reduced: no lead divides another, nor any tail monomial
    for i, p in enumerate(gb.polynomials):
        for e in p.terms:
            divisors = [
                j for j, le in enumerate(leads) if kernel.exp_divides(le, e)
            ]
            if e == leads[i]:
                assert divisors == [i]
            else:
                assert divisors == []
    # every S-polynomial reduces to zero
    for f, g in itertools.combinations(gb.polynomials, 2):
        assert not reduce_modulo(s_polynomial(f, g), gb)
    # the ideal contains the original generators
    for g in generators:
        assert not reduce_modulo(g, gb)


def test_buchberger_monomial_generators():
    gens = jacobian_generators(parse_polynomial("x^2 + y^3", XY))
    gb = buchberger(gens)
    assert gb.lead_exponents == ((1, 0), (0, 2))
    assert_is_reduced_groebner(gb, gens)


def test_buchberger_single_variable():
    gb = buchberger([Polynomial(("x",), {(1,): 5})])
    assert [str(p) for p in gb.polynomials] == ["x"]


def test_buchberger_cube_sum():
    gens = jacobian_generators(parse_polynomial("x^3 + y^3", XY))
    gb = buchberger(gens)
    # ascending grevlex: y^2 sorts below x^2
    assert gb.lead_exponents == ((0, 2), (2, 0))
    assert_is_reduced_groebner(gb, gens)


def test_buchberger_mixed_ideal():
    # Jacobian of x^2 y + y^4: (2xy, x^2 + 4y^3); the closure needs S-pairs
    gens = jacobian_generators(parse_polynomial("x^2*y + y^4", XY))
    gb = buchberger(gens)
    assert_is_reduced_groebner(gb, gens)
    # a pure power of y must join the leading ideal for the quotient to be finite
    assert any(kernel.exp_divides(le, (0, 4)) for le in gb.lead_exponents)


def test_buchberger_random_pairs_reduce_to_zero():
    rng = random.Random(2026)
    for _ in range(25):
        gens = [random_polynomial(rng, XY) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens)
        assert_is_reduced_groebner(gb, gens)


def test_buchberger_deterministic():
    gens = jacobian_generators(parse_polynomial("x^3 + x*y^3", XY))
    a = buchberger(gens)
    b = buchberger(list(reversed(gens)))
    assert [p.terms for p in a.polynomials] == [p.terms for p in b.polynomials]


def test_reduce_modulo_normal_form():
    gens = jacobian_generators(parse_polynomial("x^2 + y^3", XY))
    gb = buchberger(gens)  # leads x, y^2
    p = parse_polynomial("x^2*y + x + y^3 + y", XY)
    assert reduce_modulo(p, gb) == parse_polynomial("y", XY)


def random_exponent(rng, n):
    return tuple(rng.randint(0, 7) for _ in range(n))


def random_terms(rng, n, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = random_exponent(rng, n)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c:
            terms[e] = c
    return terms or {(0,) * n: Fraction(1)}


def monic_terms(terms):
    lc = terms[kernel.leading_exponent(terms)]
    return {e: c / lc for e, c in terms.items()}


def test_kernel_grevlex_order_properties():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_exponent(rng, n)
        b = random_exponent(rng, n)
        c = random_exponent(rng, n)
        # the key induces the comparison
        assert kernel.grevlex_greater(a, b) == (kernel.grevlex_key(a) > kernel.grevlex_key(b))
        # compatible with monomial multiplication
        if kernel.grevlex_greater(a, b):
            assert kernel.grevlex_greater(kernel.exp_add(a, c), kernel.exp_add(b, c))


def test_kernel_normal_form_is_irreducible():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.randint(1, 3)
        target = random_terms(rng, n, max_terms=6)
        lead_exps = []
        tails = []
        for _ in range(rng.randint(1, 3)):
            basis = monic_terms(random_terms(rng, n, max_terms=3))
            le = kernel.leading_exponent(basis)
            lead_exps.append(le)
            tails.append({e: c for e, c in basis.items() if e != le})
        got = kernel.normal_form(target, lead_exps, tails)
        # nothing left divisible by a basis lead
        for e in got:
            assert not any(kernel.exp_divides(le, e) for le in lead_exps)


def test_kernel_s_polynomial_cancels_lead_lcm():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 3)
        f = monic_terms(random_terms(rng, n))
        g = monic_terms(random_terms(rng, n))
        lf = kernel.leading_exponent(f)
        lg = kernel.leading_exponent(g)
        s = kernel.s_polynomial(f, lf, g, lg)
        if s:
            assert kernel.leading_exponent(s) != kernel.exp_lcm(lf, lg)


def test_is_isolated():
    assert is_isolated(parse_polynomial("x^2 + y^3", XY))
    assert not is_isolated(parse_polynomial("x^2*y", XY))
    assert not is_isolated(parse_polynomial("x^2", XY))


def test_milnor_basis_node_cusp_cubes():
    node = milnor_basis(parse_polynomial("x^2 + y^2", XY), ("1/2", "1/2"))
    assert node.monomials == ((0, 0),)
    cusp = milnor_basis(parse_polynomial("x^2 + y^3", XY), ("1/2", "1/3"))
    assert cusp.monomials == ((0, 0), (0, 1))
    cubes = milnor_basis(parse_polynomial("x^3 + y^3", XY), ("1/3", "1/3"))
    assert set(cubes.monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(cubes) == 4


def test_milnor_basis_sorted_by_weighted_degree():
    b = milnor_basis(parse_polynomial("x^3 + x*y^3", XY), ("1/3", "2/9"))
    degs = [
        sum(w * m for w, m in zip(b.weights, e)) for e in b.monomials
    ]
    assert degs == sorted(degs)


def test_milnor_number_values():
    assert milnor_number(parse_polynomial("x^2 + y^3", XY), ("1/2", "1/3")) == 2
    assert (
        milnor_number(
            parse_polynomial("x^2 + y^2 + z^2", ("x", "y", "z")),
            ("1/2", "1/2", "1/2"),
        )
        == 1
    )
    assert milnor_number(parse_polynomial("x^3 + y^3", XY), ("1/3", "1/3")) == 4
    # mixed ideals where Buchberger must close S-pairs
    assert milnor_number(parse_polynomial("x^2*y + y^4", XY), ("3/8", "1/4")) == 5
    assert milnor_number(parse_polynomial("x^3 + x*y^3", XY), ("1/3", "2/9")) == 7
    assert milnor_number(parse_polynomial("x^3*y + y^5", XY), ("4/15", "1/5")) == 11


def test_milnor_rejects_bad_inputs():
    with pytest.raises(NotWeightedHomogeneousError):
        milnor_basis(parse_polynomial("x^2 + y^3", XY), ("1/2", "1/2"))
    with pytest.raises(NonIsolatedSingularityError):
        milnor_basis(parse_polynomial("x^2*y", XY), ("1/4", "1/2"))


def test_milnor_number_stable_across_weight_family():
    # xy admits a one-parameter family of valid weights; the closed-form
    # cross-check inside milnor_number must hold for every member
    f = parse_polynomial("x*y", XY)
    for a in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
        assert milnor_number(f, (a, 1 - a)) == 1


def test_milnor_number_consistency_gate(monkeypatch):
    # the closed-form count is theorem-equal to the basis count on every
    # legitimate input, so trip the gate by injecting a wrong basis
    import singspec.milnor as m

    real = m.milnor_basis

    def broken(f, weights):
        b = real(f, weights)
        return m.MilnorBasis(b.variables, b.weights, b.monomials[:-1])

    monkeypatch.setattr(m, "milnor_basis", broken)
    with pytest.raises(ConsistencyError):
        m.milnor_number(parse_polynomial("x^2 + y^3", XY), ("1/2", "1/3"))


def test_grid_boxes():
    variables = ("x", "y", "z", "w")
    rng = random.Random(8)
    picks = [
        tuple(rng.randint(2, 6) for _ in range(rng.randint(1, 4))) for _ in range(15)
    ]
    for exps in picks:
        vs = variables[: len(exps)]
        f = Polynomial(
            vs,
            {
                tuple(a if j == i else 0 for j in range(len(exps))): 1
                for i, a in enumerate(exps)
            },
        )
        b = milnor_basis(f, tuple(Fraction(1, a) for a in exps))
        assert set(b.monomials) == set(
            itertools.product(*(range(a - 1) for a in exps))
        )
