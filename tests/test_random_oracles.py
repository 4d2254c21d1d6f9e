"""Seeded random weighted-homogeneous polynomials: the reduced Gröbner basis
against sympy's, the two spectrum routes against each other, and the
characteristic polynomial of the monodromy against the weights alone."""

import functools
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from test_milnor import atom, random_polynomial, seeded_atoms

from singspec import (
    NonIsolatedSingularityError,
    Polynomial,
    buchberger,
    char_poly,
    eigenvalues_gamma_c,
    eigenvalues_geometric,
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
from singspec import cli
from singspec.checks import build_corpus
from singspec.milnor import _closed_mu, _jacobian_leads, exp_divides
from singspec.poly import grevlex_key, is_weighted_homogeneous, weighted_degree
from singspec.spectrum import analyze

NAMES = ("x", "y", "z", "w", "v", "u")


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


# -- weighted degrees and the closed-form mu against full Fraction sums ----------


def fraction_degree(exponents, weights):
    """The weighted degree as a Fraction sum over every coordinate."""
    return sum((Fraction(w) * m for m, w in zip(exponents, weights)), Fraction(0))


def fraction_homogeneous(f, weights):
    return all(fraction_degree(e, weights) == 1 for e in f.terms)


def fraction_mu(ws):
    """prod(1/w_i - 1), one Fraction operation at a time."""
    return math.prod((1 / w - 1 for w in ws), start=Fraction(1))


def oracle_weight_vectors(seed=6161, count=300):
    """Reciprocal, chain and loop weights (``random_weights``) and weights
    with random numerators, in 1 to 6 variables."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        if rng.random() < 0.25:
            dens = [rng.randint(2, 40) for _ in range(n)]
            yield tuple(Fraction(rng.randint(1, d - 1), d) for d in dens)
        else:
            yield random_weights(rng, n)


def test_weighted_degree_and_mu_match_fraction_sums():
    rng = random.Random(6262)
    vectors = list(oracle_weight_vectors())
    assert {len(ws) for ws in vectors} == set(range(1, 7))
    assert any(w.numerator > 1 for ws in vectors for w in ws)
    for ws in vectors:
        mu = _closed_mu(ws)
        assert type(mu) is Fraction and mu == fraction_mu(ws), ws
        for _ in range(10):
            e = tuple(rng.choice((0, 0, 1, rng.randint(2, 40))) for _ in ws)
            d = weighted_degree(e, ws)
            assert type(d) is Fraction and d == fraction_degree(e, ws), (e, ws)
        names = NAMES[: len(ws)]
        terms = {tuple(rng.randint(0, 3) for _ in ws): 1 for _ in range(rng.randint(1, 4))}
        f = Polynomial(names, terms)
        assert is_weighted_homogeneous(f, ws) == fraction_homogeneous(f, ws), (str(f), ws)


def test_homogeneity_and_mu_match_fraction_sums_on_cases():
    """The random draws (weighted-homogeneous by construction, and again
    with one term of another degree added) and the 129 corpus cases, with
    every term, standard monomial and closed-form mu compared."""
    rng = random.Random(6363)
    corpus = build_corpus()
    cases = [(f, ws, True) for f, ws in random_cases()]
    cases += [(c.f, c.basis.weights, True) for c in corpus]
    for f, ws, _ in cases[:100]:
        e = tuple(rng.randint(0, 4) for _ in ws)
        if fraction_degree(e, ws) != 1:
            cases.append((f + Polynomial(f.variables, {e: 1}), ws, False))
    assert len(cases) > 100 + 129 + 50
    for f, ws, homogeneous in cases:
        assert is_weighted_homogeneous(f, ws) == fraction_homogeneous(f, ws) == homogeneous
        for e in f.terms:
            assert weighted_degree(e, ws) == fraction_degree(e, ws), (e, ws)
        assert _closed_mu(ws) == fraction_mu(ws), ws
    for c in corpus:
        ws = c.basis.weights
        assert c.mu_closed == fraction_mu(ws) == len(c.basis)
        for g in c.basis.monomials:
            assert weighted_degree(g, ws) == fraction_degree(g, ws), (g, ws)


def _old_render(p):
    """``Polynomial.__str__`` as it sorts for any number of variables."""
    return p._render(sorted(p.terms, key=grevlex_key, reverse=True), p._monomial)


def test_sp_report_matches_the_library_on_atoms(capsys):
    """The ``sp --json`` report half against the library composition: both
    angle dicts in ascending angle order (contents and key order) and the
    characteristic polynomial as the grevlex sort renders it, on seeded
    Fermat, chain and loop atoms."""
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(2, 4)
        kind = rng.choice(("fermat", "chain", "loop"))
        exps = [rng.randint(2, 5) for _ in range(n)]
        if kind == "fermat":
            f = Polynomial(NAMES[:n], {
                tuple(a if j == i else 0 for j in range(n)): rng.randint(1, 9)
                for i, a in enumerate(exps)
            })
        else:
            f = atom(kind, exps, rng)
        argv = ["sp", str(f), "--vars", ",".join(f.variables)]
        assert cli.main([*argv, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert cli.main(argv) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        eig_c = eigenvalues_gamma_c(analyze(f).s_basis)
        for field, e in (("eigenvalues_gamma_c", eig_c),
                         ("eigenvalues_geometric", eigenvalues_geometric(eig_c))):
            # --json sorts keys as strings; the text report keeps the built order
            angles = [(str(a), m) for a, m in e.items()]
            assert data[field] == dict(angles), str(f)
            assert lines[field] == ", ".join(f"{a}:{m}" for a, m in angles), str(f)
        assert data["char_poly"] == lines["char_poly"] == _old_render(char_poly(eig_c)), str(f)


def test_one_variable_str_matches_the_grevlex_sort():
    rng = random.Random(5353)
    for _ in range(300):
        terms = {
            (rng.choice((0, 1, rng.randint(2, 40))),): Fraction(
                rng.choice((-1, 1)) * rng.randint(0, 12), rng.choice((1, 1, 2, 3, 7))
            )
            for _ in range(rng.randint(0, 6))
        }
        p = Polynomial((rng.choice(("T", "x", "t0")),), terms)
        assert str(p) == _old_render(p), p.terms
