import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from singspec import (
    EigenMultiset,
    FracPoly,
    NegativeMultiplicityError,
    NonExactDivisionError,
    NotGaloisStableError,
    Polynomial,
    ResourceLimitError,
    char_poly,
    eigenvalues_gamma_c,
    eigenvalues_geometric,
    infer_weights,
    milnor_basis,
    parse_polynomial,
    sp_from_basis,
    sp_product_formula,
    sp_twist,
    spectral_residues,
)
from singspec import spectrum
from singspec.checks import build_corpus
from singspec.errors import ConsistencyError

F = Fraction
XY = ("x", "y")


def random_weights(rng, n):
    return tuple(F(rng.randint(1, 5), rng.randint(6, 12)) for _ in range(n))


# -- product formula -----------------------------------------------------------


def test_product_formula_golden():
    assert sp_product_formula((F(1, 2), F(1, 3))) == FracPoly(
        {F(5, 6): 1, F(7, 6): 1}
    )
    assert sp_product_formula((F(1, 2), F(1, 2))) == FracPoly({F(1): 1})
    assert sp_product_formula((F(1, 3), F(1, 3))) == FracPoly(
        {F(2, 3): 1, F(1): 2, F(4, 3): 1}
    )
    # equal binomials s^c - 1 above and below cancel in the exponent map
    assert sp_product_formula((F(1, 2),) * 3) == FracPoly({F(3, 2): 1})
    assert sp_product_formula((F(1, 2), F(1, 4))) == FracPoly({F(3, 4): 1, F(1): 1, F(5, 4): 1})
    assert sp_product_formula((F(1, 3), F(2, 3))) == FracPoly({F(1): 1})


def test_product_formula_non_reciprocal_weights():
    # weights with numerator > 1: per-factor division would fail, the full
    # product still divides exactly
    assert sp_product_formula((F(3, 8), F(1, 4))) == FracPoly(
        {F(5, 8): 1, F(1): 1, F(11, 8): 1, F(9, 8): 1, F(7, 8): 1}
    )
    s = sp_product_formula((F(4, 15), F(1, 5)))
    assert s.coefficient_sum() == 11
    assert s == sp_twist(s, 2)


def test_product_formula_rejects_impossible_weights():
    with pytest.raises(NonExactDivisionError):
        sp_product_formula((F(2, 3), F(2, 3)))


def test_thom_sebastiani_factorization():
    rng = random.Random(271)
    for _ in range(40):
        w1 = (F(1, rng.randint(2, 6)),)
        w2 = (F(1, rng.randint(2, 6)), F(1, rng.randint(2, 6)))
        assert (
            sp_product_formula(w1 + w2)
            == sp_product_formula(w1) * sp_product_formula(w2)
        )


def test_support_bounds():
    for ws in ((F(1, 2), F(1, 3)), (F(1, 6),) * 3, (F(3, 8), F(1, 4))):
        s = sp_product_formula(ws)
        lo = sum(ws)
        hi = len(ws) - lo
        assert all(lo <= a <= hi for a, _ in s.items())


def test_symmetry_of_formula():
    rng = random.Random(4096)
    for _ in range(60):
        n = rng.randint(1, 4)
        ws = tuple(F(1, rng.randint(2, 9)) for _ in range(n))
        s = sp_product_formula(ws)
        assert s == sp_twist(s, n)


# -- basis route ----------------------------------------------------------------


def test_basis_route_golden():
    cusp = milnor_basis(parse_polynomial("x^2 + y^3", XY), ("1/2", "1/3"))
    assert sp_from_basis(cusp) == FracPoly({F(5, 6): 1, F(7, 6): 1})
    node = milnor_basis(parse_polynomial("x^2 + y^2", XY), ("1/2", "1/2"))
    assert sp_from_basis(node) == FracPoly({F(1): 1})
    cubes = milnor_basis(parse_polynomial("x^3 + y^3", XY), ("1/3", "1/3"))
    assert sp_from_basis(cubes) == FracPoly({F(2, 3): 1, F(1): 2, F(4, 3): 1})


def test_dual_routes_on_mixed_ideals():
    for text, ws in (
        ("x^2*y + y^4", ("3/8", "1/4")),
        ("x^3 + x*y^3", ("1/3", "2/9")),
        ("x^3*y + y^5", ("4/15", "1/5")),
    ):
        b = milnor_basis(parse_polynomial(text, XY), ws)
        assert sp_from_basis(b) == sp_product_formula(b.weights), text


def test_sp_twist():
    s = FracPoly({F(5, 6): 1, F(7, 6): 1})
    assert sp_twist(s, 2) == s
    assert sp_twist(FracPoly({F(0): 1}), 0) == FracPoly({F(0): 1})
    assert sp_twist(FracPoly({F(1, 2): 1}), 1) == FracPoly({F(1, 2): 1})
    assert sp_twist(FracPoly({F(1, 3): 1}), 1) == FracPoly({F(2, 3): 1})


def test_symmetry_is_a_fixed_point_of_the_twist():
    s = FracPoly({F(5, 6): 1, F(7, 6): 1})
    assert s == sp_twist(s, 2)
    s = FracPoly({F(1, 2): 1})
    assert s != sp_twist(s, 2)
    assert FracPoly() == sp_twist(FracPoly(), 17)


# -- eigenvalue conventions -------------------------------------------------------


def test_eigenvalues_gamma_c():
    s = FracPoly({F(5, 6): 1, F(7, 6): 1})
    assert eigenvalues_gamma_c(s) == EigenMultiset({F(1, 6): 1, F(5, 6): 1})
    assert eigenvalues_gamma_c(FracPoly({F(1): 1})) == EigenMultiset({F(0): 1})
    with pytest.raises(NegativeMultiplicityError):
        eigenvalues_gamma_c(FracPoly({F(1, 2): -1}))


def test_eigenvalues_geometric_involution():
    e = EigenMultiset({F(1, 3): 1})
    assert eigenvalues_geometric(e) == EigenMultiset({F(2, 3): 1})
    assert eigenvalues_geometric(EigenMultiset({F(0): 5})) == EigenMultiset(
        {F(0): 5}
    )
    rng = random.Random(12)
    for _ in range(50):
        residues = {
            F(rng.randint(0, 5), 6): rng.randint(1, 4) for _ in range(rng.randint(1, 4))
        }
        e = EigenMultiset(residues)
        assert eigenvalues_geometric(eigenvalues_geometric(e)) == e


def test_convention_triangle():
    for ws in ((F(1, 2), F(1, 3)), (F(1, 3), F(1, 3)), (F(3, 8), F(1, 4))):
        s = sp_product_formula(ws)
        assert eigenvalues_geometric(eigenvalues_gamma_c(s)) == spectral_residues(s)


def test_eigen_multiset_validation():
    with pytest.raises(ValueError):
        EigenMultiset({F(7, 6): 2})  # residues must already lie in [0, 1)
    with pytest.raises(NegativeMultiplicityError):
        EigenMultiset({F(1, 2): -1})
    with pytest.raises(NegativeMultiplicityError):
        EigenMultiset({F(1, 2): 0})
    assert EigenMultiset({F(1, 2): 2}).terms == {F(1, 2): 2}


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_golden():
    assert str(char_poly(EigenMultiset({F(1, 6): 1, F(5, 6): 1}))) == "T^2 - T + 1"
    assert str(char_poly(EigenMultiset({F(0): 2}))) == "T^2 - 2*T + 1"
    assert str(char_poly(EigenMultiset())) == "1"
    five = char_poly(EigenMultiset({F(k, 5): 1 for k in range(1, 5)}))
    assert five == Polynomial(("T",), {(k,): 1 for k in range(5)})


def test_char_poly_not_galois_stable():
    with pytest.raises(NotGaloisStableError) as exc:
        char_poly(EigenMultiset({F(1, 3): 1}))
    assert exc.value.residue == F(2, 3)
    with pytest.raises(NotGaloisStableError):
        char_poly(EigenMultiset({F(1, 6): 2, F(5, 6): 1}))


def test_char_poly_from_spectrum_degree_mu():
    for text, ws, mu in (
        ("x^2 + y^3", ("1/2", "1/3"), 2),
        ("x^3 + y^3", ("1/3", "1/3"), 4),
        ("x^3*y + y^5", ("4/15", "1/5"), 11),
    ):
        s = sp_from_basis(milnor_basis(parse_polynomial(text, XY), ws))
        cp = char_poly(eigenvalues_gamma_c(s))
        assert cp.total_degree() == mu
        assert all(c.denominator == 1 for c in cp.terms.values())
        # monic: full multiplicity at the top
        assert cp.terms[(mu,)] == 1


def test_char_poly_convention_independent():
    for ws in ((F(1, 2), F(1, 3)), (F(1, 6), F(1, 6))):
        e = eigenvalues_gamma_c(sp_product_formula(ws))
        assert char_poly(e) == char_poly(eigenvalues_geometric(e))


def test_char_poly_not_galois_stable_residue():
    # missing residue: the least absent primitive residue of the least bad
    # denominator
    with pytest.raises(NotGaloisStableError) as exc:
        char_poly(EigenMultiset({F(0): 1, F(1, 5): 1, F(3, 5): 1, F(1, 7): 1}))
    assert exc.value.residue == F(2, 5)
    # unequal multiplicities: the least residue carrying the lowest one
    with pytest.raises(NotGaloisStableError) as exc:
        char_poly(EigenMultiset({F(1, 6): 2, F(5, 6): 1}))
    assert exc.value.residue == F(5, 6)
    with pytest.raises(NotGaloisStableError) as exc:
        char_poly(EigenMultiset({F(1, 8): 3, F(3, 8): 1, F(5, 8): 3, F(7, 8): 1}))
    assert exc.value.residue == F(3, 8)


# the characteristic polynomial by the dense construction: Phi_n by exact
# long division of T^n - 1 by the lower cyclotomic polynomials


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@functools.cache
def _dense_cyclotomic(n):
    rem = [-1] + [0] * (n - 1) + [1]
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _dense_mul(den, _dense_cyclotomic(d))
    quo = [0] * (len(rem) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = c = rem[k + len(den) - 1]
        for j, y in enumerate(den):
            rem[k + j] -= c * y
    assert not any(rem)
    return tuple(quo)


def _dense_char_poly(mults):
    coeffs = [1]
    for v, c in mults.items():
        for _ in range(c):
            coeffs = _dense_mul(coeffs, _dense_cyclotomic(v))
    return Polynomial(("T",), {(k,): c for k, c in enumerate(coeffs) if c})


def _galois_orbits(mults):
    """Every primitive residue u/v with the multiplicity mults[v]."""
    return EigenMultiset(
        {F(u, v): c for v, c in mults.items() for u in range(v) if math.gcd(u, v) == 1}
    )


def test_char_poly_single_cyclotomic_factors():
    for v in range(1, 61):
        assert char_poly(_galois_orbits({v: 1})) == _dense_char_poly({v: 1}), v


def test_char_poly_random_galois_stable_multisets():
    rng = random.Random(6151)
    denominators = (1, 2, 3, 4, 8, 9, 27, 6, 10, 12, 30, 210)
    for _ in range(60):
        mults = {
            v: rng.randint(1, 4)
            for v in rng.sample(denominators, rng.randint(1, 4))
        }
        assert char_poly(_galois_orbits(mults)) == _dense_char_poly(mults), mults


def test_binomial_division_is_exact_or_fails():
    # (T^2 - 1)(T^3 - 1) = T^5 - T^3 - T^2 + 1
    assert spectrum._binomial_product({2: 1, 3: 1}) == [1, 0, -1, -1, 0, 1]
    assert spectrum._binomial_product({2: 1, 3: 0}) == [-1, 0, 1]
    assert spectrum._binomial_product({2: 0, 3: 1}) == [-1, 0, 0, 1]
    assert spectrum._binomial_product({2: 1, 3: 1, 4: -1}) is None
    assert spectrum._binomial_product({1: -1}) is None
    assert spectrum._binomial_product({}) == [1]
    # (T^6 - 1)(T - 1) / ((T^3 - 1)(T^2 - 1)) = Phi_6, whichever order
    assert spectrum._binomial_product({6: 1, 1: 1, 3: -1, 2: -1}) == [1, -1, 1]
    assert spectrum._binomial_product({2: -1, 3: -1, 1: 1, 6: 1}) == [1, -1, 1]


def test_char_poly_remainder_is_a_consistency_error(monkeypatch):
    # Phi_6 = (T^6 - 1)(T - 1) / ((T^3 - 1)(T^2 - 1)); with the
    # multiplied-in binomial (T - 1) dropped, the product leaves a remainder
    sixth = _galois_orbits({6: 1})
    product = spectrum._binomial_product
    monkeypatch.setattr(
        spectrum, "_binomial_product", lambda exps: product({**exps, 1: exps[1] - 1})
    )
    with pytest.raises(ConsistencyError):
        char_poly(sixth)


def test_binomial_budget_boundary(monkeypatch):
    # Phi_6: four passes over lists of at most 1 + 6 + 1 entries, work 32
    sixth = _galois_orbits({6: 1})
    monkeypatch.setattr(spectrum, "MAX_BINOMIAL_WORK", 32)
    assert char_poly(sixth) == _dense_char_poly({6: 1})
    monkeypatch.setattr(spectrum, "MAX_BINOMIAL_WORK", 31)
    with pytest.raises(ResourceLimitError):
        char_poly(sixth)


# the product formula by the dense construction: expand numerator and
# denominator products, then long-divide


def _u_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _u_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _u_trim(out)


def _u_divmod(num, den):
    """Long division; the divisor must have leading coefficient 1."""
    if not den or den[-1] != 1:
        raise ConsistencyError("long division needs a monic divisor")
    rem = list(num)
    if len(rem) < len(den):
        return [], _u_trim(rem)
    quo = [0] * (len(rem) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        c = rem[k + len(den) - 1]
        if c:
            quo[k] = c
            for j, y in enumerate(den):
                rem[k + j] -= c * y
    return _u_trim(quo), _u_trim(rem)


def _dense_product_formula(ws):
    m = math.lcm(*(w.denominator for w in ws))
    num = [1]
    den = [1]
    for w in ws:
        c = int(w * m)
        factor_num = [0] * (m + 1)
        factor_num[c] = -1
        factor_num[m] += 1
        factor_den = [0] * (c + 1)
        factor_den[0] = -1
        factor_den[c] += 1
        num = _u_mul(num, _u_trim(factor_num))
        den = _u_mul(den, _u_trim(factor_den))
    quo, rem = _u_divmod(num, den)
    if rem or any(c < 0 for c in quo):
        raise NonExactDivisionError(f"weight product for {ws} is not a spectrum")
    return FracPoly({F(e, m): c for e, c in enumerate(quo) if c})


def test_long_division_requires_monic_divisor():
    assert _u_divmod([-1, 0, 1], [-1, 1]) == ([1, 1], [])
    with pytest.raises(ConsistencyError):
        _u_divmod([-1, 0, 1], [1, 2])
    with pytest.raises(ConsistencyError):
        _u_divmod([1], [])


def _binomial_oracle(ups, downs):
    """prod over ups of (T^d - 1) long-divided by prod over downs, or None
    on a remainder."""
    num, den = [1], [1]
    for d in ups:
        num = _u_mul(num, [-1] + [0] * (d - 1) + [1])
    for d in downs:
        den = _u_mul(den, [-1] + [0] * (d - 1) + [1])
    quo, rem = _u_divmod(num, den)
    return None if rem else quo


def test_binomial_product_matches_long_division():
    """Maps drawn as two lists of binomials, so a d on both sides cancels
    and may leave a zero entry; about half of the draws are not exact."""
    rng = random.Random(4241)
    seen = {"exact": 0, "remainder": 0, "zero": 0}
    for _ in range(300):
        ups = [rng.randint(1, 9) for _ in range(rng.randint(0, 6))]
        downs = rng.sample(ups, rng.randint(0, len(ups)))
        downs += [rng.randint(1, 9) for _ in range(rng.randint(0, 3))]
        exps = Counter(ups)
        exps.subtract(downs)
        got = spectrum._binomial_product(exps)
        assert got == _binomial_oracle(ups, downs), (ups, downs)
        seen["remainder" if got is None else "exact"] += 1
        seen["zero"] += 0 in exps.values()
    assert min(seen.values()) > 30, seen


def _atom_weights(kind, exps):
    """Weights of x_i^a_i * x_{i+1} summed over i: a chain ends in a pure
    power, a loop wraps round to x_1."""
    n = len(exps)
    terms = {}
    for i, a in enumerate(exps):
        e = [0] * n
        e[i] = a
        if kind == "chain" and i + 1 < n:
            e[i + 1] = 1
        elif kind == "loop":
            e[(i + 1) % n] += 1
        terms[tuple(e)] = 1
    return infer_weights(Polynomial(tuple(f"x{i}" for i in range(n)), terms))


def _formula_or_error(fn, ws):
    try:
        return fn(ws)
    except NonExactDivisionError:
        return NonExactDivisionError


def test_streamed_formula_matches_dense_construction():
    rng = random.Random(8081)
    kinds = {"fermat": 0, "chain": 0, "loop": 0, "impossible": 0}
    for _ in range(120):
        kind = rng.choice(tuple(kinds))
        n = rng.randint(1, 4) if kind in ("fermat", "impossible") else rng.randint(2, 4)
        exps = [rng.randint(2, 6) for _ in range(n)]
        if kind == "fermat":
            ws = tuple(F(1, a) for a in exps)
        elif kind == "impossible":
            ws = tuple(F(rng.randint(1, 8), rng.randint(9, 16)) for _ in range(n))
        else:
            ws = _atom_weights(kind, exps)
        streamed = _formula_or_error(sp_product_formula, ws)
        assert streamed == _formula_or_error(_dense_product_formula, ws), ws
        if kind != "impossible":
            assert streamed is not NonExactDivisionError, ws
        kinds[kind] += streamed is NonExactDivisionError
    # the impossible draws reach the remainder path, the others never do
    assert kinds["impossible"] > 10
    assert kinds["fermat"] == kinds["chain"] == kinds["loop"] == 0



# -- integer weighted degrees --------------------------------------------------


def test_sp_from_basis_matches_rational_degrees():
    """On the whole corpus, against one Fraction term per standard monomial."""
    corpus = build_corpus()
    assert len(corpus) == 129
    for b in (c.basis for c in corpus):
        shift = sum(b.weights)
        expected = FracPoly(
            (sum(w * e for w, e in zip(b.weights, g)) + shift, 1) for g in b.monomials
        )
        assert sp_from_basis(b) == expected
        assert all(isinstance(a, Fraction) for a in sp_from_basis(b).terms)
