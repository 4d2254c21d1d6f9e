"""Seeded random weighted-homogeneous polynomials: the reduced Gröbner basis
against sympy's, the two spectrum routes against each other, and the
characteristic polynomial of the monodromy against the weights alone."""

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from test_milnor import random_polynomial, seeded_atoms

from singspec import (
    NonIsolatedSingularityError,
    Polynomial,
    buchberger,
    char_poly,
    eigenvalues_gamma_c,
    infer_weights,
    is_isolated,
    jacobian_generators,
    milnor_basis,
    milnor_number,
    parse_polynomial,
    reduce_modulo,
    sp_from_basis,
    sp_product_formula,
)
from singspec.checks import build_corpus
from singspec.milnor import _jacobian_leads, exp_divides
from singspec.poly import grevlex_key
from singspec.spectrum import analyze

NAMES = ("x", "y", "z", "w")


def random_weights(rng, n):
    """Reciprocal weights, or the weights of a random chain or loop atom."""
    exps = [rng.randint(2, 5) for _ in range(n)]
    kind = rng.choice(("fermat", "chain", "loop"))
    if kind == "fermat" or n < 2:
        return tuple(Fraction(1, a) for a in exps)
    terms = {}
    for i, a in enumerate(exps):
        e = [0] * n
        e[i] = a
        if kind == "chain" and i + 1 < n:
            e[i + 1] = 1
        elif kind == "loop":
            e[(i + 1) % n] += 1
        terms[tuple(e)] = 1
    return infer_weights(Polynomial(NAMES[:n], terms))


def degree_one_monomials(ws):
    box = [range(int(1 / w) + 1) for w in ws]
    return [e for e in itertools.product(*box) if sum(w * k for w, k in zip(ws, e)) == 1]


def random_cases(seed=7070, count=100):
    """(polynomial, weights) for count draws: weights first, then a random
    set of monomials of weighted degree 1 with random rational coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 4)
        ws = random_weights(rng, n)
        pool = degree_one_monomials(ws)
        picks = rng.sample(pool, rng.randint(min(n, len(pool)), min(n + 3, len(pool))))
        terms = {}
        for e in picks:
            terms[e] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 3))
        yield Polynomial(NAMES[:n], terms), ws


@functools.cache
def isolated_cases():
    cases = tuple((f, ws) for f, ws in random_cases() if is_isolated(f))
    assert len(cases) >= 50  # enough of the draws exercise the comparison
    return cases


def test_spectrum_routes_agree_on_random_polynomials():
    for f, ws in isolated_cases():
        assert sp_from_basis(milnor_basis(f, ws)) == sp_product_formula(ws), str(f)


def test_analyze_matches_the_public_functions():
    """One Gröbner run in analyze against the functions that each run their
    own: on every random draw (isolated or not) and every corpus case."""
    cases = [(f, ws) for f, ws in random_cases()]
    cases += [(c.f, c.basis.weights) for c in build_corpus()]
    assert len(cases) == 100 + 129
    isolated = 0
    for f, ws in cases:
        if not is_isolated(f):
            with pytest.raises(NonIsolatedSingularityError):
                analyze(f, ws)
            continue
        isolated += 1
        a = analyze(f, ws)
        basis = milnor_basis(f, ws)
        assert a.basis.weights == ws
        assert a.basis == basis, str(f)
        assert len(a.basis) == a.mu_closed == milnor_number(f, ws)
        assert a.s_basis == sp_from_basis(basis)
        assert a.s_formula == sp_product_formula(ws)
    assert isolated >= 50 + 129


def test_leads_only_run_matches_the_reduced_basis():
    """``_jacobian_leads`` reads the minimal basis of the Gröbner core and
    skips inter-reduction: its leads must be the reduced basis's, ascending,
    none dividing another, and ``is_isolated`` must read them as it read the
    reduced basis's leads.  On every random draw (isolated or not), every
    corpus case and every chain and loop atom of ``test_milnor``."""
    polys = [f for f, _ in random_cases()]
    polys += [c.f for c in build_corpus()]
    polys += list(seeded_atoms())
    assert len(polys) == 100 + 129 + 24
    isolated = 0
    for f in polys:
        leads = _jacobian_leads(f)
        assert leads == buchberger(jacobian_generators(f), f.variables).lead_exponents, str(f)
        assert list(leads) == sorted(leads, key=grevlex_key), str(f)
        assert not any(exp_divides(a, b) for a, b in itertools.permutations(leads, 2)), str(f)
        pure = all(any(sum(le) == le[i] for le in leads) for i in range(len(f.variables)))
        assert is_isolated(f) == (bool(leads) and pure), str(f)
        isolated += is_isolated(f)
    assert 50 + 129 + 24 <= isolated < 100 + 129 + 24


def thom_sebastiani_sum(f, g):
    """f + g in disjoint variables: g's exponents shifted past f's variables."""
    nf, ng = len(f.variables), len(g.variables)
    terms = {e + (0,) * ng: c for e, c in f.terms.items()}
    terms.update({(0,) * nf + e: c for e, c in g.terms.items()})
    return Polynomial(tuple(f"x{i}" for i in range(nf + ng)), terms)


def test_basis_route_factors_over_disjoint_sums():
    """Thom–Sebastiani on the basis route alone: sp(f + g) = sp(f)·sp(g) and
    mu(f + g) = mu(f)·mu(g), with no product formula on either side."""
    rng = random.Random(2112)
    small = [(f, ws) for f, ws in isolated_cases() if len(ws) <= 3]
    pairs = 0
    while pairs < 32:
        (f, wf), (g, wg) = rng.choice(small), rng.choice(small)
        if len(wf) + len(wg) > 5:
            continue
        pairs += 1
        a, b = analyze(f, wf), analyze(g, wg)
        h = analyze(thom_sebastiani_sum(f, g), wf + wg)
        assert h.s_basis == a.s_basis * b.s_basis, (str(f), str(g))
        assert len(h.basis) == len(a.basis) * len(b.basis), (str(f), str(g))


def test_groebner_bases_match_sympy():
    sympy = pytest.importorskip("sympy")
    for f, _ in isolated_cases():
        gens = jacobian_generators(f)
        ours = {
            frozenset(p.terms.items())
            for p in buchberger(gens, f.variables).polynomials
        }
        symbols = sympy.symbols(f.variables)
        exprs = [
            sum(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**k for s, k in zip(symbols, e)))
                for e, c in g.terms.items()
            )
            for g in gens
            if g
        ]
        theirs = set()
        for g in sympy.groebner(exprs, *symbols, order="grevlex").exprs:
            terms = sympy.Poly(g, *symbols).terms(order="grevlex")
            lc = Fraction(int(terms[0][1].p), int(terms[0][1].q))
            theirs.add(
                frozenset((e, Fraction(int(c.p), int(c.q)) / lc) for e, c in terms)
            )
        assert ours == theirs, str(f)


# -- the monodromy from the weights alone (Milnor-Orlik) ---------------------


def milnor_orlik_divisor(ws) -> dict:
    """{a: c_a} with Delta = prod (T^a - 1)^(c_a): the product over the
    weights w = p/q of (Lambda_q / p - 1), where Lambda_1 = 1 and
    Lambda_a * Lambda_b = gcd(a, b) * Lambda_lcm(a, b) (Milnor-Orlik,
    Topology 9, 1970)."""
    divisor = {1: Fraction(1)}
    for w in ws:
        factor = ((w.denominator, Fraction(1, w.numerator)), (1, Fraction(-1)))
        product = {}
        for a, c in divisor.items():
            for b, d in factor:
                key = math.lcm(a, b)
                product[key] = product.get(key, 0) + c * d * math.gcd(a, b)
        divisor = product
    assert all(c.denominator == 1 for c in divisor.values()), divisor
    return {a: int(c) for a, c in divisor.items() if c}


def times_binomials(poly: dict, binomials) -> dict:
    """poly (exponent -> coefficient) times T^a - 1 for every a listed."""
    for a in binomials:
        out = dict.fromkeys(poly, 0)
        for e, c in poly.items():
            out[e + a] = out.get(e + a, 0) + c
            out[e] -= c
        poly = {e: c for e, c in out.items() if c}
    return poly


def assert_char_poly_is_milnor_orlik(s, ws):
    """char_poly * prod over c_a < 0 == prod over c_a > 0, which needs no
    division and holds exactly when Delta is the Milnor-Orlik quotient."""
    divisor = milnor_orlik_divisor(ws)
    ours = {k: c for (k,), c in char_poly(eigenvalues_gamma_c(s)).terms.items()}
    lhs = times_binomials(ours, [a for a, c in divisor.items() for _ in range(-c)])
    rhs = times_binomials({0: 1}, [a for a, c in divisor.items() for _ in range(c)])
    assert lhs == rhs, tuple(map(str, ws))


def test_char_poly_matches_milnor_orlik_on_random_and_corpus_cases():
    for f, ws in isolated_cases():
        assert_char_poly_is_milnor_orlik(sp_from_basis(milnor_basis(f, ws)), ws)
    corpus = build_corpus()
    assert len(corpus) == 129
    for c in corpus:
        assert_char_poly_is_milnor_orlik(c.s_basis, c.basis.weights)


def test_char_poly_matches_milnor_orlik_on_larger_lcms():
    tuples = [
        (Fraction(1, 12), Fraction(1, 15), Fraction(1, 16)),  # lcm 240
        (Fraction(1, 9), Fraction(1, 10), Fraction(1, 14)),  # lcm 630
        (Fraction(2, 15), Fraction(1, 3), Fraction(1, 7)),  # x^5*y + y^3 + z^7
        (Fraction(4, 35), Fraction(1, 5), Fraction(1, 8)),  # x^7*y + y^5 + z^8
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)),
    ]
    for ws in tuples:
        assert_char_poly_is_milnor_orlik(sp_product_formula(ws), ws)


def assert_canonical(p):
    """p is what the validating constructor makes of its own terms: every key
    a tuple of len(variables) non-negative ints, every value a nonzero
    Fraction."""
    assert p == Polynomial(p.variables, dict(p.terms)), str(p)
    n = len(p.variables)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == n, e
        assert all(type(x) is int and x >= 0 for x in e), e
        assert type(c) is Fraction and c != 0, (e, c)


def test_internal_builders_return_canonical_polynomials():
    """The parser, partial derivatives, Buchberger, reduce_modulo and
    char_poly build their results with from_scaled, which validates nothing."""
    for text in ("(x+y)^0", "x^0*y^0", "0*x + 3", "(2/3*x - y)^3 + x - x", "-(x)^2 + 4/6"):
        assert_canonical(parse_polynomial(text, ("x", "y")))
    rng = random.Random(2024)
    for f, _ in isolated_cases():
        assert_canonical(parse_polynomial(str(f), f.variables))
        jac = jacobian_generators(f)
        gb = buchberger(jac)
        for p in (*jac, *gb.polynomials):
            assert_canonical(p)
        assert_canonical(reduce_modulo(random_polynomial(rng, f.variables), gb))
    xy = ("x", "y")
    for _ in range(60):
        f = random_polynomial(rng, xy)
        assert_canonical(parse_polynomial(str(f), xy))
        for p in jacobian_generators(f):
            assert_canonical(p)
        gb = buchberger([random_polynomial(rng, xy) for _ in range(rng.randint(1, 3))], xy)
        for p in gb.polynomials:
            assert_canonical(p)
        assert_canonical(reduce_modulo(f, gb))
    for c in build_corpus():
        assert_canonical(char_poly(eigenvalues_gamma_c(c.s_basis)))
