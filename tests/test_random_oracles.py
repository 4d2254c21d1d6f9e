"""Seeded random weighted-homogeneous polynomials: the reduced Gröbner basis
against sympy's, and the two spectrum routes against each other."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from singspec import (
    NonIsolatedSingularityError,
    Polynomial,
    buchberger,
    infer_weights,
    is_isolated,
    jacobian_generators,
    milnor_basis,
    milnor_number,
    sp_from_basis,
    sp_product_formula,
)
from singspec.checks import build_corpus
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
