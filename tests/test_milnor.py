import itertools
import math
import random
from fractions import Fraction

import pytest

from singspec import (
    ConsistencyError,
    GroebnerBasis,
    NonIsolatedSingularityError,
    NotWeightedHomogeneousError,
    Polynomial,
    ResourceLimitError,
    buchberger,
    infer_weights,
    is_isolated,
    jacobian_generators,
    milnor_basis,
    milnor_number,
    parse_polynomial,
    reduce_modulo,
    sp_product_formula,
)
from singspec import milnor, spectrum
from singspec.checks import _EXTRA_CASES, _bp_polynomial, brieskorn_pham_exponents
from singspec.poly import MAX_DIMENSION

XY = ("x", "y")


def random_polynomial(rng, variables, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
    return Polynomial(variables, terms)


def s_polynomial(f, g):
    lf = milnor.leading_exponent(f.terms)
    lg = milnor.leading_exponent(g.terms)
    lcm = milnor.exp_lcm(lf, lg)
    mf = Polynomial(f.variables, {milnor.exp_sub(lcm, lf): 1 / f.terms[lf]})
    mg = Polynomial(g.variables, {milnor.exp_sub(lcm, lg): 1 / g.terms[lg]})
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
                j for j, le in enumerate(leads) if milnor.exp_divides(le, e)
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
    assert any(milnor.exp_divides(le, (0, 4)) for le in gb.lead_exponents)


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
    lc = terms[milnor.leading_exponent(terms)]
    return {e: c / lc for e, c in terms.items()}


def test_kernel_grevlex_order_properties():
    rng = random.Random(11)
    key = milnor.grevlex_key
    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_exponent(rng, n)
        b = random_exponent(rng, n)
        c = random_exponent(rng, n)
        # a total order, graded by total degree
        assert (key(a) == key(b)) == (a == b)
        if sum(a) != sum(b):
            assert (key(a) > key(b)) == (sum(a) > sum(b))
        # compatible with monomial multiplication
        if key(a) > key(b):
            assert key(milnor.exp_add(a, c)) > key(milnor.exp_add(b, c))


def test_leading_exponent_matches_sympy_grevlex():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 4)
        terms = random_terms(rng, n, max_terms=8)
        symbols = sympy.symbols(f"x0:{n}")
        p = sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in terms.items()}, *symbols
        )
        assert milnor.leading_exponent(terms) == p.monoms(order="grevlex")[0], terms


def test_kernel_normal_form_is_irreducible():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.randint(1, 3)
        target = random_terms(rng, n, max_terms=6)
        lead_exps = []
        tails = []
        for _ in range(rng.randint(1, 3)):
            basis = monic_terms(random_terms(rng, n, max_terms=3))
            le = milnor.leading_exponent(basis)
            lead_exps.append(le)
            tails.append({e: c for e, c in basis.items() if e != le})
        got = milnor.normal_form(target, lead_exps, tails)
        # nothing left divisible by a basis lead
        for e in got:
            assert not any(milnor.exp_divides(le, e) for le in lead_exps)
        # terms come out in strictly descending grevlex order
        keys = [milnor.grevlex_key(e) for e in got]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_kernel_s_polynomial_cancels_lead_lcm():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 3)
        f = monic_terms(random_terms(rng, n))
        g = monic_terms(random_terms(rng, n))
        lf = milnor.leading_exponent(f)
        lg = milnor.leading_exponent(g)
        s = milnor.s_polynomial(f, lf, g, lg)
        if s:
            assert milnor.leading_exponent(s) != milnor.exp_lcm(lf, lg)
        # the tails alone give the same S-polynomial
        ft = {e: c for e, c in f.items() if e != lf}
        gt = {e: c for e, c in g.items() if e != lg}
        assert milnor.s_polynomial(ft, lf, gt, lg) == s


def test_input_guards_carry_messages():
    with pytest.raises(ValueError, match="^cannot infer variables from an empty generator list$"):
        buchberger([])
    x = Polynomial.variable(XY, "x")
    z = Polynomial.variable(("x", "z"), "z")
    with pytest.raises(ValueError, match="^generators must share one variable tuple$"):
        buchberger([x, z])
    with pytest.raises(ValueError, match="^variable mismatch$"):
        reduce_modulo(z, buchberger([x]))


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


def test_milnor_basis_in_lexicographic_order():
    b = milnor_basis(parse_polynomial("x^3 + x*y^3", XY), ("1/3", "2/9"))
    assert b.monomials == tuple(sorted(b.monomials))


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


def test_milnor_basis_refuses_the_zero_polynomial():
    # the zero polynomial is weighted-homogeneous for every weight vector,
    # so it reaches the Jacobian step, and its Jacobian ideal is zero
    with pytest.raises(NonIsolatedSingularityError, match="^zero Jacobian ideal$"):
        milnor_basis(Polynomial(XY), ("1/2", "1/3"))


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


# -- the pair queue against the scan it replaced ----------------------------------


def scan_buchberger(generators, variables):
    """Buchberger with the pair selection by a full scan of the pending pairs,
    ``min(pending, key=lcm_key)``: the order the heap must reproduce."""
    gens = [g for g in generators if g]
    polys, leads, tails = [], [], []

    def add(d):
        le = milnor.leading_exponent(d)
        lc = d[le]
        if lc != 1:
            d = {e: c / lc for e, c in d.items()}
        polys.append(d)
        leads.append(le)
        tails.append({e: c for e, c in d.items() if e != le})

    for g in sorted(gens, key=lambda p: sorted(p.terms.items())):
        add(dict(g.terms))
    pending = {(i, j) for j in range(len(polys)) for i in range(j)}

    def lcm_key(pair):
        i, j = pair
        return (milnor.grevlex_key(milnor.exp_lcm(leads[i], leads[j])), i, j)

    while pending:
        i, j = min(pending, key=lcm_key)
        pending.remove((i, j))
        if milnor.exp_coprime(leads[i], leads[j]):
            continue
        lcm = milnor.exp_lcm(leads[i], leads[j])
        chained = False
        for k in range(len(polys)):
            if k in (i, j) or not milnor.exp_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chained = True
                break
        if chained:
            continue
        s = milnor.s_polynomial(polys[i], leads[i], polys[j], leads[j])
        r = milnor.normal_form(s, leads, tails)
        if r:
            new = len(polys)
            add(r)
            pending.update((k, new) for k in range(new))

    order = sorted(range(len(polys)), key=lambda i: milnor.grevlex_key(leads[i]))
    kept = []
    for i in order:
        if not any(milnor.exp_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    out = []
    for i in kept:
        other_leads = [leads[k] for k in kept if k != i]
        other_tails = [tails[k] for k in kept if k != i]
        full = dict(milnor.normal_form(tails[i], other_leads, other_tails))
        full[leads[i]] = Fraction(1)
        out.append((leads[i], full))
    out.sort(key=lambda pair: milnor.grevlex_key(pair[0]))
    return GroebnerBasis(
        variables=variables,
        polynomials=tuple(Polynomial(variables, d) for _, d in out),
    )


def atom(kind, exps, rng):
    """A chain or loop polynomial with the given exponents and random
    coefficients: x_i^a_i * x_{i+1} terms (the last chain term is pure)."""
    n = len(exps)
    terms = {}
    for i, a in enumerate(exps):
        e = [0] * n
        e[i] = a
        if kind == "chain" and i + 1 < n:
            e[i + 1] = 1
        elif kind == "loop":
            e[(i + 1) % n] += 1
        terms[tuple(e)] = rng.randint(1, 9)
    return Polynomial(("x", "y", "z", "w", "v")[:n], terms)


def seeded_atoms(seed=5150, count=24):
    rng = random.Random(seed)
    top = {3: 6, 4: 4, 5: 3}
    for _ in range(count):
        n = rng.randint(3, 5)
        kind = rng.choice(("chain", "loop"))
        yield atom(kind, [rng.randint(2, top[n]) for _ in range(n)], rng)


def test_pair_queue_matches_scan_order(monkeypatch):
    real = milnor.s_polynomial
    seen = []

    def recording(f, lf, g, lg):
        seen.append((lf, lg))
        return real(f, lf, g, lg)

    monkeypatch.setattr(milnor, "s_polynomial", recording)
    for f in seeded_atoms():
        gens = jacobian_generators(f)
        seen.clear()
        got = buchberger(gens, f.variables)
        heap_pairs = list(seen)
        seen.clear()
        want = scan_buchberger(gens, f.variables)
        assert heap_pairs  # the Jacobian ideals of these atoms are not monomial
        assert heap_pairs == seen, str(f)
        assert got == want, str(f)


# -- the pruned walk against the full box -----------------------------------------


def box_filter(b, leads):
    """Every exponent of the box below the pure powers that no lead divides,
    in lexicographic order."""
    bounds = [
        min(le[i] for le in leads if le[i] and sum(le) == le[i])
        for i in range(len(b.variables))
    ]
    return tuple(
        m
        for m in itertools.product(*(range(a) for a in bounds))
        if not any(milnor.exp_divides(le, m) for le in leads)
    )


def walk_cases():
    for text, variables, ws in _EXTRA_CASES:
        yield parse_polynomial(text, variables), ws
    for f in seeded_atoms():
        yield f, infer_weights(f)
    grid = list(brieskorn_pham_exponents())
    for exps in random.Random(3301).sample(grid, 20):
        yield _bp_polynomial(exps), tuple(Fraction(1, a) for a in exps)


def test_pruned_walk_matches_box_filter():
    for f, ws in walk_cases():
        b = milnor_basis(f, ws)
        leads = buchberger(jacobian_generators(f), f.variables).lead_exponents
        assert b.monomials == box_filter(b, leads), str(f)
        assert len(b) == milnor_number(f, ws)


def random_lead_sets(seed=2323, count=400):
    """Seeded lead sets in 1..5 variables: a pure power of every variable
    (sometimes two), extra leads anywhere in the box, never the constant 1."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        powers = [rng.randint(1, 7 - n) for _ in range(n)]
        leads = [tuple(p if j == i else 0 for j in range(n)) for i, p in enumerate(powers)]
        leads += [
            tuple(rng.randint(0, p) * (j == i) for j in range(n))
            for i, p in enumerate(powers)
            if rng.random() < 0.2
        ]
        for _ in range(rng.randint(0, 6)):
            e = tuple(rng.randint(0, p) for p in powers)
            leads.append(e if any(e) else leads[0])
        rng.shuffle(leads)
        yield [le for le in leads if any(le)], powers


def test_walk_matches_brute_force_on_random_lead_sets():
    for leads, powers in random_lead_sets():
        want = [
            m
            for m in itertools.product(*(range(p) for p in powers))
            if not any(all(a <= b for a, b in zip(le, m)) for le in leads)
        ]
        assert milnor._standard_monomials(leads, len(powers)) == want, leads


# -- resource budgets ---------------------------------------------------------------


def test_budgets_have_headroom_over_the_ladder():
    # the top rung x^30+y^31+z^37 of the sp ladder fits three times over
    ws = (Fraction(1, 30), Fraction(1, 31), Fraction(1, 37))
    assert milnor._closed_mu(ws) == 31_320
    assert 3 * 31_320 < milnor.MAX_MU
    assert 3 * (3 * math.lcm(30, 31, 37) + 1) < spectrum.MAX_DENSE
    # a product formula makes at most 2n passes over at most MAX_DENSE entries
    assert 2 * MAX_DIMENSION * spectrum.MAX_DENSE < spectrum.MAX_BINOMIAL_WORK


def test_milnor_budget_boundary(monkeypatch):
    f = parse_polynomial("x^3 + y^3", XY)  # mu 4
    monkeypatch.setattr(milnor, "MAX_MU", 4)
    assert len(milnor_basis(f, ("1/3", "1/3"))) == 4
    monkeypatch.setattr(milnor, "MAX_MU", 3)
    with pytest.raises(ResourceLimitError):
        milnor_basis(f, ("1/3", "1/3"))


def test_dense_budget_boundary(monkeypatch):
    ws = (Fraction(1, 2), Fraction(1, 3))  # n * m + 1 = 13
    monkeypatch.setattr(spectrum, "MAX_DENSE", 13)
    assert sp_product_formula(ws)
    monkeypatch.setattr(spectrum, "MAX_DENSE", 12)
    with pytest.raises(ResourceLimitError):
        sp_product_formula(ws)
