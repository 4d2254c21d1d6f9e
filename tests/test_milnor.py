import functools
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
from singspec.exact import MAX_DIMENSION
from singspec.poly import exp_add, grevlex_key

XY = ("x", "y")


# -- exponent tuples, independent of the packed kernel ---------------------------


def leading_exponent(terms):
    return max(terms, key=grevlex_key)


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def divides(a, b):
    """True if the monomial with exponent a divides the one with exponent b."""
    return all(x <= y for x, y in zip(a, b))


def coprime(a, b):
    return not any(x and y for x, y in zip(a, b))


def unpack(pk, terms):
    """The (exponent tuple, coefficient) pairs of a packed dict, in its order."""
    return [(pk.exponent(k), c) for k, c in terms.items()]


def random_polynomial(rng, variables, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = terms.get(e, 0) + rng.randint(-3, 3)
    return Polynomial(variables, terms)


def s_polynomial(f, g):
    lf = leading_exponent(f.terms)
    lg = leading_exponent(g.terms)
    lcm = exp_lcm(lf, lg)
    mf = Polynomial(f.variables, {exp_sub(lcm, lf): 1 / f.terms[lf]})
    mg = Polynomial(g.variables, {exp_sub(lcm, lg): 1 / g.terms[lg]})
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
                j for j, le in enumerate(leads) if divides(le, e)
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
    assert any(divides(le, (0, 4)) for le in gb.lead_exponents)


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
    lc = terms[leading_exponent(terms)]
    return {e: c / lc for e, c in terms.items()}


def test_kernel_grevlex_order_properties():
    rng = random.Random(11)
    key = grevlex_key
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
            assert key(exp_add(a, c)) > key(exp_add(b, c))


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
        pk = milnor._Packing(n)
        assert pk.exponent(max(pk.pack(terms))) == p.monoms(order="grevlex")[0], terms
        assert leading_exponent(terms) == p.monoms(order="grevlex")[0], terms


def test_kernel_normal_form_is_irreducible():
    rng = random.Random(3001)
    for _ in range(200):
        n = rng.randint(1, 3)
        pk = milnor._Packing(n)
        target = random_terms(rng, n, max_terms=6)
        lead_exps = []
        tails = []
        for _ in range(rng.randint(1, 3)):
            basis = monic_terms(random_terms(rng, n, max_terms=3))
            le = leading_exponent(basis)
            lead_exps.append(le)
            tails.append(pk.pack({e: c for e, c in basis.items() if e != le}))
        leads = [max(pk.pack({le: 1})) for le in lead_exps]
        got = unpack(pk, milnor.normal_form(pk.pack(target), leads, tails, pk.guard))
        # nothing left divisible by a basis lead
        for e, _ in got:
            assert not any(divides(le, e) for le in lead_exps)
        # terms come out in strictly descending grevlex order
        keys = [grevlex_key(e) for e, _ in got]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_kernel_s_polynomial_cancels_lead_lcm():
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 3)
        pk = milnor._Packing(n)
        f = monic_terms(random_terms(rng, n))
        g = monic_terms(random_terms(rng, n))
        lf = leading_exponent(f)
        lg = leading_exponent(g)
        lcm = exp_lcm(lf, lg)
        kf, kg, klcm = (max(pk.pack({e: 1})) for e in (lf, lg, lcm))
        s = milnor.s_polynomial(pk.pack(f), kf, pk.pack(g), kg, klcm)
        if s:
            assert pk.exponent(max(s)) != lcm
        # the same S-polynomial as on tuples
        assert dict(unpack(pk, s)) == tuple_s_polynomial(f, lf, g, lg)
        # the tails alone give the same S-polynomial
        ft = pk.pack({e: c for e, c in f.items() if e != lf})
        gt = pk.pack({e: c for e, c in g.items() if e != lg})
        assert milnor.s_polynomial(ft, kf, gt, kg, klcm) == s


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


# -- the packed keys against exponent tuples ----------------------------------------


def packed_key(e):
    """K(e) by its definition, deg(e) * 2^(nW) - sum of e_i * 2^(iW)."""
    w = milnor._W
    return (sum(e) << len(e) * w) - sum(x << i * w for i, x in enumerate(e))


def limit_exponents(rng, n, count):
    """Seeded exponents in n variables of degree at most 2^V - 1: small ones,
    a single field at 2^V - 1, and random splits of a degree near the limit."""
    top = milnor._FIELD
    for _ in range(count):
        kind = rng.randrange(4)
        if kind < 2:
            e = [rng.randint(0, 7) for _ in range(n)]
        elif kind == 2:
            e = [0] * n
            e[rng.randrange(n)] = top
        else:
            cuts = sorted(rng.randint(0, top - rng.randint(0, 3)) for _ in range(n))
            e = [b - a for a, b in zip([0, *cuts], cuts)]
            rng.shuffle(e)
        yield tuple(e)


def exponent_pairs(seed):
    """Pairs (a, b) in 1-6 and MAX_DIMENSION variables, a third of them with
    b a multiple of a (within the limit), so that division is exercised."""
    rng = random.Random(seed)
    for n in (*range(1, 7), MAX_DIMENSION):
        pool = list(limit_exponents(rng, n, 60))
        for a in pool:
            b = rng.choice(pool)
            if rng.random() < 0.33:
                b = tuple(x + rng.randint(0, 3) for x in a)
                b = b if sum(b) <= milnor._FIELD else a
            yield n, a, b


def test_packed_key_round_trips_and_orders_as_grevlex():
    for n, a, b in exponent_pairs(35):
        pk = milnor._Packing(n)
        ka, kb = packed_key(a), packed_key(b)
        assert pk.pack({a: 3, b: 4}) == {ka: 3, kb: 4}
        assert unpack(pk, pk.pack({a: 3, b: 4})) == list({a: 3, b: 4}.items())
        assert pk.exponent(ka) == a and pk.exponent(kb) == b
        assert -ka & pk.mask == sum(x << i * milnor._W for i, x in enumerate(a))
        assert (ka > kb) == (grevlex_key(a) > grevlex_key(b)), (a, b)
        assert (ka == kb) == (a == b)


def test_packed_divisibility_lcm_product_and_support():
    w, v = milnor._W, milnor._V
    for n, a, b in exponent_pairs(36):
        pk = milnor._Packing(n)
        ka, kb = packed_key(a), packed_key(b)
        ea, eb = -ka & pk.mask, -kb & pk.mask
        assert (not (ka - kb) & pk.guard) == divides(a, b), (a, b)
        assert (not (kb - ka) & pk.guard) == divides(b, a), (a, b)
        assert pk.lcm(ea, eb) == pk.lcm(eb, ea) == packed_key(exp_lcm(a, b)), (a, b)
        assert ka + kb == packed_key(exp_add(a, b))
        if sum(a) + sum(b) <= milnor._FIELD:
            assert pk.exponent(ka + kb) == exp_add(a, b)
        if divides(a, b):
            assert pk.exponent(kb - ka) == exp_sub(b, a)
        support = sum(1 << i * w + v for i, x in enumerate(a) if x)
        assert pk.support(ea) == support, a
        assert (not pk.support(ea) & pk.support(eb)) == coprime(a, b), (a, b)


def test_pack_refuses_a_degree_past_the_field_limit():
    top = milnor._FIELD
    for n in (1, 2, 5, MAX_DIMENSION):
        pk = milnor._Packing(n)
        assert pk.pack({(0,) * (n - 1) + (top,): 1})
        assert pk.pack({}) == {}
        for e in ((top + 1,), (top, 1), (2 * top + 2,), (1 << milnor._W,), (top // 2 + 1,) * 2):
            if len(e) <= n:
                with pytest.raises(ResourceLimitError, match="too large to pack"):
                    pk.pack({(1,) * n: 1, e + (0,) * (n - len(e)): 1})


def test_groebner_runs_refuse_degrees_past_the_field_limit():
    """A generator of degree 2^V or more, or a pair whose lcm reaches it, is
    refused with ResourceLimitError; just below, the leads are the scan's."""
    half = 1 << milnor._V - 1
    refused = functools.partial(pytest.raises, ResourceLimitError, match="too large to pack")
    big = Polynomial(XY, {(half * 2 + 1, 0): 1, (0, 2): 1})
    with refused():
        is_isolated(big)
    with refused():
        buchberger(jacobian_generators(big))
    # mu 1 from the weights, so only the packed limit stands in the way
    node = Polynomial(XY, {(1, 1): 1, (0, half * 2 + 1): 1})
    with refused():
        milnor_basis(node, (1 - Fraction(1, half * 2 + 1), Fraction(1, half * 2 + 1)))
    # each generator of degree 2^(V-1) + 1, their lcm of degree 2^V
    gens = [Polynomial(XY, {(half, 1): 1, (0, 1): 1}), Polynomial(XY, {(1, half): 1})]
    with refused():
        buchberger(gens)
    for k in (half - 1, half - 2):
        gens = [Polynomial(XY, {(k, 1): 1, (0, 1): 1}), Polynomial(XY, {(1, k): 1})]
        assert buchberger(gens) == scan_buchberger(gens, XY)
    edge = Polynomial(XY, {(milnor._FIELD + 1, 0): 1, (0, 2): 1})  # x^(2^V - 1) is a lead
    assert is_isolated(edge)
    assert milnor._jacobian_leads(edge) == ((0, 1), (milnor._FIELD, 0))
    node = Polynomial(XY, {(1, 1): 1, (0, half * 2): 1})
    assert len(milnor_basis(node, (1 - Fraction(1, half * 2), Fraction(1, half * 2)))) == 1


# -- the pair queue against the scan it replaced ----------------------------------


def tuple_normal_form(terms, lead_exps, tails):
    """Normal form on exponent tuples: the grevlex-largest term first, by the
    first lead in list order that divides it."""
    work = dict(terms)
    out = {}
    while work:
        e = leading_exponent(work)
        c = work.pop(e)
        hit = next((i for i, le in enumerate(lead_exps) if divides(le, e)), -1)
        if hit < 0:
            out[e] = c
            continue
        d = exp_sub(e, lead_exps[hit])
        for te, tc in tails[hit].items():
            k = exp_add(d, te)
            v = work.get(k, 0) - c * tc
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    return out


def tuple_s_polynomial(f, lf, g, lg):
    """S-polynomial of the monic x^lf + f and x^lg + g on exponent tuples."""
    lcm = exp_lcm(lf, lg)
    out = {}
    for e, c in f.items():
        out[exp_add(e, exp_sub(lcm, lf))] = c
    for e, c in g.items():
        k = exp_add(e, exp_sub(lcm, lg))
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


def scan_buchberger(generators, variables, seen=None):
    """Buchberger on exponent tuples with the pair selection by a full scan of
    the pending pairs, ``min(pending, key=lcm_key)``: the order the heap must
    reproduce.  The leads of every S-polynomial formed go to ``seen``."""
    gens = [g for g in generators if g]
    polys, leads, tails = [], [], []
    seen = [] if seen is None else seen

    def add(d):
        le = leading_exponent(d)
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
        return (grevlex_key(exp_lcm(leads[i], leads[j])), i, j)

    while pending:
        i, j = min(pending, key=lcm_key)
        pending.remove((i, j))
        if coprime(leads[i], leads[j]):
            continue
        lcm = exp_lcm(leads[i], leads[j])
        chained = False
        for k in range(len(polys)):
            if k in (i, j) or not divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chained = True
                break
        if chained:
            continue
        seen.append((leads[i], leads[j]))
        s = tuple_s_polynomial(polys[i], leads[i], polys[j], leads[j])
        r = tuple_normal_form(s, leads, tails)
        if r:
            new = len(polys)
            add(r)
            pending.update((k, new) for k in range(new))

    order = sorted(range(len(polys)), key=lambda i: grevlex_key(leads[i]))
    kept = []
    for i in order:
        if not any(divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    out = []
    for i in kept:
        other_leads = [leads[k] for k in kept if k != i]
        other_tails = [tails[k] for k in kept if k != i]
        full = dict(tuple_normal_form(tails[i], other_leads, other_tails))
        full[leads[i]] = Fraction(1)
        out.append((leads[i], full))
    out.sort(key=lambda pair: grevlex_key(pair[0]))
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
    heap_pairs = []

    def recording(f, lf, g, lg, lcm):
        heap_pairs.append((lf, lg))
        return real(f, lf, g, lg, lcm)

    monkeypatch.setattr(milnor, "s_polynomial", recording)
    for f in seeded_atoms():
        gens = jacobian_generators(f)
        heap_pairs.clear()
        got = buchberger(gens, f.variables)
        pk = milnor._Packing(len(f.variables))
        seen = []
        want = scan_buchberger(gens, f.variables, seen)
        assert seen  # the Jacobian ideals of these atoms are not monomial
        assert [(pk.exponent(a), pk.exponent(b)) for a, b in heap_pairs] == seen, str(f)
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
        if not any(divides(le, m) for le in leads)
    )


def walk_cases():
    for text, variables, ws in _EXTRA_CASES:
        yield parse_polynomial(text, variables), ws
    for f in seeded_atoms():
        yield f, infer_weights(f)
    grid = list(brieskorn_pham_exponents())
    for exps in random.Random(3301).sample(grid, 20):
        yield _bp_polynomial(exps), tuple(Fraction(1, a) for a in exps)


def test_packed_kernel_matches_the_scan_on_walk_cases():
    """The reduced bases and the leads-only run against the tuple scan on
    ``_EXTRA_CASES``, the seeded atoms and a sample of the grid."""
    for f, _ in walk_cases():
        gens = jacobian_generators(f)
        want = scan_buchberger(gens, f.variables)
        assert buchberger(gens, f.variables) == want, str(f)
        assert milnor._jacobian_leads(f) == want.lead_exponents, str(f)


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
    # and so costs at most (2n)^2 times that in pass work
    assert (2 * MAX_DIMENSION) ** 2 * spectrum.MAX_DENSE < spectrum.MAX_PASS_WORK


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
