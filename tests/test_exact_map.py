"""The shared exact-map base: every kind against a from-scratch oracle.

The oracle keeps the per-class dict loops the four kinds used before they
shared ``ExactMap``: normalize and merge on construction, a zero-dropping sum,
a convolution, powers as repeated products, all on ``Fraction`` keys.  The
maps themselves store integer numerators over one denominator.
"""

import copy
import math
import pickle
import random
import time
from fractions import Fraction

import pytest

from singspec import EigenMultiset, EquivClass, FracPoly, NegativeMultiplicityError, Polynomial
from singspec.exact import exact_rational
from singspec.poly import as_weights, weighted_degree

F = Fraction
XY = ("x", "y")


# -- the oracle -------------------------------------------------------------------


class Kind:
    """How one kind normalizes, joins and builds; ``positive`` marks the
    multiset, whose multiplicities must stay positive."""

    def __init__(self, build, key, value, join, unit, positive=False, scalar=True):
        self.build, self.key, self.value, self.join = build, key, value, join
        self.unit, self.positive, self.scalar = unit, positive, scalar

    def normalize(self, items) -> dict:
        acc = {}
        for k, c in items:
            k, c = self.key(k), self.value(c)
            acc[k] = acc.get(k, 0) + c
        if self.positive and any(c <= 0 for c in acc.values()):
            raise NegativeMultiplicityError("non-positive multiplicity")
        return {k: c for k, c in acc.items() if c}

    def add(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for k, c in b.items():
            out[k] = out.get(k, 0) + c
        return self.normalize(out.items())

    def mul(self, a: dict, b: dict) -> dict:
        out = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = self.join(ka, kb)
                out[k] = out.get(k, 0) + ca * cb
        return self.normalize(out.items())

    def pow(self, a: dict, n: int) -> dict:
        out = {self.unit: self.value(1)}
        for _ in range(n):
            out = self.mul(out, a)
        return out


def _integer(c):
    """The entry rule for integers: an int or an integral Fraction, never a bool."""
    if isinstance(c, bool) or not isinstance(c, (int, F)) or F(c).denominator != 1:
        raise TypeError(c)
    return int(c)


def _rational(r):
    """The entry rule for rationals: an int, a Fraction or a string, never a bool."""
    if isinstance(r, bool) or not isinstance(r, (int, F, str)):
        raise TypeError(r)
    return F(r)


def _residue(r):
    r = _rational(r)
    if not 0 <= r < 1:
        raise ValueError(r)
    return r


KINDS = {
    "Polynomial": Kind(
        lambda d: Polynomial(XY, d),
        lambda e: tuple(map(_integer, e)),
        _rational,
        lambda a, b: tuple(x + y for x, y in zip(a, b)),
        (0, 0),
    ),
    "FracPoly": Kind(FracPoly, _rational, _integer, lambda a, b: a + b, F(0)),
    "EquivClass": Kind(
        EquivClass,
        lambda k: (_integer(k[0]), _integer(k[1]), _rational(k[2]) % 1),
        _integer,
        lambda a, b: (a[0] + b[0], a[1] + b[1], (a[2] + b[2]) % 1),
        (0, 0, F(0)),
    ),
    "EigenMultiset": Kind(
        EigenMultiset,
        _residue,
        _integer,
        lambda a, b: (a + b) % 1,
        F(0),
        positive=True,
        scalar=False,
    ),
}


SMALL_DENOMINATORS = (1, 2, 3, 4)
# mixed and large key denominators, up to the 5,005 (lcm of 5, 7, 11 and 13)
# of the sp-large ladder
WIDE_DENOMINATORS = (1, 2, 6, 12, 35, 77, 143, 385, 1001, 5005)


def _draw(name, rng, dens=SMALL_DENOMINATORS):
    """Raw (key, value) items of one kind, with repeated keys and zeros."""
    items = []
    for _ in range(rng.randint(0, 5)):
        d = rng.choice(dens)
        if name == "Polynomial":
            k = (rng.randint(0, 3), rng.randint(0, 3))
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
        elif name == "FracPoly":
            k, c = F(rng.randint(-6 * d // 4 - 1, 6 * d // 4 + 1), d), rng.randint(-3, 3)
        elif name == "EquivClass":
            k = (rng.randint(-2, 2), rng.randint(-2, 2), F(rng.randint(-2 * d, 2 * d), d))
            c = rng.randint(-3, 3)
        else:
            k, c = F(rng.randrange(d), d), rng.randint(1, 3)
        items.append((k, c))
    return items


def _rational_part(key):
    return key[2] if isinstance(key, tuple) else key


def _assert_canonical(m):
    """Integer numerators over the smallest denominator that serves every key."""
    if isinstance(m, Polynomial):
        assert m.den == 1 and m.terms == m.scaled
        with pytest.raises(TypeError):
            m.terms[(0,) * len(m.variables)] = 1  # a read-only view
        return
    public = m.terms
    assert m.den == math.lcm(*(F(_rational_part(k)).denominator for k in public))
    assert all(type(_rational_part(k)) is int for k in m.scaled)
    assert {k: m.scaled[s] for k, s in zip(public, m.scaled)} == public


@pytest.mark.parametrize("name", sorted(KINDS))
def test_base_matches_dict_oracle(name):
    _check_against_oracle(name, SMALL_DENOMINATORS)


@pytest.mark.parametrize("name", sorted(KINDS))
def test_base_matches_dict_oracle_over_wide_denominators(name):
    # keys of one map over mixed denominators, and +, * and ** across maps
    # over different ones
    _check_against_oracle(name, WIDE_DENOMINATORS)


def _check_against_oracle(name, dens):
    kind = KINDS[name]
    rng = random.Random(7243)
    for _ in range(150):
        items_a, items_b = _draw(name, rng, dens), _draw(name, rng, dens)
        a, b = kind.build(items_a), kind.build(items_b)
        oa, ob = kind.normalize(items_a), kind.normalize(items_b)
        for m in (a, b, a + b, a * b):
            _assert_canonical(m)
        assert a.terms == oa
        assert all(type(c) is type(kind.value(1)) for c in a.terms.values())
        assert (a + b).terms == kind.add(oa, ob)
        assert (a * b).terms == kind.mul(oa, ob)
        n = rng.randint(0, 3)
        assert (a ** n).terms == kind.pow(oa, n)
        assert (a == b) == (oa == ob)
        assert a == kind.build(oa) and not a != kind.build(oa)
        assert a.items() == sorted(oa.items())
        assert bool(a) == bool(oa)
        if kind.positive:
            # a negated multiset has negative multiplicities
            for negated, bad in ((oa, lambda: -a), (ob, lambda: a - b)):
                if negated:
                    with pytest.raises(NegativeMultiplicityError):
                        bad()
            continue
        neg = {k: -c for k, c in ob.items()}
        assert (-b).terms == neg
        assert (a - b).terms == kind.add(oa, neg)
        s = rng.randint(-3, 3)
        lifted = kind.normalize([(kind.unit, s)])
        assert (a + s).terms == (s + a).terms == kind.add(oa, lifted)
        assert (a * s).terms == (s * a).terms == kind.mul(oa, lifted)
        assert (s - a).terms == kind.add(lifted, {k: -c for k, c in oa.items()})


def test_one_map_over_den_12_and_den_6():
    # the same exponents 1/6, 5/6 and 3/2, as numerators over 12 and over 6
    over_12 = FracPoly.from_scaled([(2, 1), (10, -2), (18, 3)], 12)
    over_6 = FracPoly.from_scaled([(1, 1), (5, -2), (9, 3)], 6)
    public = FracPoly({F(1, 6): 1, F(5, 6): -2, F(3, 2): 3})
    for m in (over_12, public):
        assert m == over_6 and m.den == 6 and m.scaled == over_6.scaled
        assert str(m) == str(over_6) == "t^(1/6) - 2*t^(5/6) + 3*t^(3/2)"
        assert repr(m) == repr(over_6)
    assert over_12.terms == public.terms == {F(1, 6): 1, F(5, 6): -2, F(3, 2): 3}
    assert tuple(k for k, _ in over_12.items()) == (F(1, 6), F(5, 6), F(3, 2))
    # integer exponents only: the denominator drops to 1
    whole = FracPoly.from_scaled([(12, 1), (-24, 1), (0, 4)], 12)
    assert whole.den == 1 and str(whole) == "t^(-2) + 4 + t"
    assert EigenMultiset.from_scaled([(4, 1), (8, 2)], 12) == EigenMultiset({F(1, 3): 1, F(2, 3): 2})
    cls_12 = EquivClass.from_scaled([((0, 1, 6), 1), ((1, 0, 0), 2)], 12)
    cls_6 = EquivClass.from_scaled([((0, 1, 3), 1), ((1, 0, 0), 2)], 6)
    assert cls_12 == cls_6 and cls_12.den == 2 and repr(cls_12) == repr(cls_6)
    assert cls_12.items() == [((0, 1, F(1, 2)), 1), ((1, 0, F(0)), 2)]


def test_polynomial_from_scaled_is_a_whole_polynomial():
    # stored pairs, repeated key and zero included, give the constructor's polynomial
    pairs = [((1, 0), F(1, 2)), ((0, 2), -1), ((1, 0), F(1, 2)), ((2, 2), 0)]
    p = Polynomial.from_scaled(pairs, ["x", "y"])
    want = Polynomial(XY, {(1, 0): 1, (0, 2): -1})
    assert p == want and p.variables == XY and p.scaled == want.scaled
    assert str(p) == "-y^2 + x" and repr(p) == repr(want)
    assert p * p - want * want == 0
    for how in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        q = how(p)
        assert q == want and q.variables == XY and str(q) == str(want)


def test_zero_map_has_denominator_one():
    for m in (
        FracPoly.from_scaled([(5, 1), (5, -1)], 12),
        FracPoly({F(1, 3): 1}) - FracPoly({F(1, 3): 1}),
        EquivClass({(0, 0, F(1, 6)): 2}) * 0,
    ):
        assert not m and m.den == 1 and m.scaled == {}


def test_mod_one_joins_across_denominators():
    # eigenvalue angles add mod 1: 2/3 + 1/2 = 7/6 -> 1/6, 3/4 + 1/4 -> 0
    e = EigenMultiset({F(2, 3): 1, F(3, 4): 2}) * EigenMultiset({F(1, 2): 1, F(1, 4): 3})
    assert e.terms == {
        F(1, 6): 1, F(11, 12): 3, F(1, 4): 2, F(0): 6,
    }
    assert e.den == 12
    assert (EigenMultiset({F(1, 5): 1}) ** 5).terms == {F(0): 1}
    assert (EigenMultiset({F(1, 5): 1}) ** 5).den == 1
    # classes: bidegrees add, angles add mod 1 over the lcm of 1001 and 5005
    a = EquivClass({(0, 1, F(1000, 1001)): 1})
    b = EquivClass({(1, 0, F(6, 5005)): 2})
    assert (a * b).items() == [((1, 1, F(1, 5005)), 2)]
    assert (a * b).den == 5005
    # the constructor reduces every angle mod 1 on the way in
    assert EquivClass({(0, 0, F(-1, 1001)): 1}).scaled == {(0, 0, 1000): 1}
    assert EquivClass({(0, 0, F(5011, 5005)): 1}).items() == [((0, 0, F(6, 5005)), 1)]


def test_multiset_refuses_non_positive_multiplicities():
    for bad in ({F(1, 2): 0}, {F(1, 2): -1}, [(F(1, 3), 1), (F(1, 3), -1)]):
        with pytest.raises(NegativeMultiplicityError):
            EigenMultiset(bad)
    with pytest.raises(TypeError):
        EigenMultiset({F(1, 2): 1}) + 1


@pytest.mark.parametrize(
    "value",
    [EigenMultiset({F(1, 2): 1}), EquivClass.lefschetz()],
    ids=["EigenMultiset", "EquivClass"],
)
def test_immutable(value):
    with pytest.raises(AttributeError, match="is immutable"):
        value.terms = {}
    with pytest.raises(AttributeError):
        value.other = 1


@pytest.mark.parametrize(
    "value", [Polynomial.variable(XY, "x"), EquivClass.lefschetz()], ids=["Polynomial", "EquivClass"]
)
def test_foreign_operands_are_refused(value):
    with pytest.raises(TypeError):
        value - "x"
    with pytest.raises(TypeError):
        value * "x"
    assert value != "x"


def test_power_errors_name_their_type():
    with pytest.raises(ValueError, match="Polynomial powers"):
        Polynomial.variable(XY, "x") ** -1
    with pytest.raises(ValueError, match="EquivClass powers"):
        EquivClass({(0, 0, 0): 1}) ** 1.5
    with pytest.raises(ValueError, match="Polynomial powers"):
        Polynomial.variable(XY, "x") ** True


def test_polynomial_variables_stay_apart():
    x = Polynomial.variable(XY, "x")
    other = Polynomial.variable(("x", "z"), "x")
    assert x != other
    with pytest.raises(ValueError, match="variable mismatch"):
        x + other


# -- the entry rule ------------------------------------------------------------------

# slot -> (build from one value, values refused with TypeError, values accepted);
# every accepted value of a slot builds the same map.  Among the refused values:
# 1.5, F(3, 2), F(1, 2) and 2.7 in integer slots were truncated to an int, and
# the floats 0.1 and 1/3 in rational slots became binary fractions.
ENTRY_SLOTS = {
    "Polynomial exponent": (
        lambda v: Polynomial(XY, {(v, 0): 1}),
        [1.0, 1.5, True, F(3, 2), "2", None],
        [2, F(2), F(4, 2)],
    ),
    "Polynomial coefficient": (
        lambda v: Polynomial(XY, {(1, 0): v}),
        [0.5, 1.0, True, None],
        [F(1, 2), "1/2", "0.5"],
    ),
    "Polynomial constant term": (
        lambda v: Polynomial(XY, {(0, 0): v}),
        [0.5, True],
        [3, F(3), "3"],
    ),
    "FracPoly exponent": (
        lambda v: FracPoly({v: 1}),
        [0.1, 0.5, True, None],
        [F(1, 3), "1/3"],
    ),
    "FracPoly coefficient": (
        lambda v: FracPoly({F(1, 2): v}),
        [F(3, 2), 1.0, True, "2"],
        [2, F(2), F(6, 3)],
    ),
    "EigenMultiset residue": (
        lambda v: EigenMultiset({v: 1}),
        [0.5, False, None],
        [F(1, 2), "1/2", "0.5"],
    ),
    "EigenMultiset multiplicity": (
        lambda v: EigenMultiset({F(1, 2): v}),
        [2.7, F(3, 2), 2.0, True, "2"],
        [2, F(2)],
    ),
    "EquivClass p": (
        lambda v: EquivClass({(v, 0, 0): 1}),
        [F(1, 2), 1.0, True, "1"],
        [1, F(1)],
    ),
    "EquivClass q": (
        lambda v: EquivClass({(0, v, 0): 1}),
        [F(1, 2), 1.0, True],
        [-1, F(-1)],
    ),
    "EquivClass angle": (
        lambda v: EquivClass({(0, 0, v): 1}),
        [0.5, True, None],
        [F(5, 6), "5/6", F(-1, 6), "-1/6"],
    ),
    "EquivClass multiplicity": (
        lambda v: EquivClass({(0, 0, 0): v}),
        [F(3, 2), 1.0, True, "1"],
        [-3, F(-3), F(-6, 2)],
    ),
    "as_weights": (
        lambda v: as_weights([v, F(1, 3)]),
        [0.5, 1 / 3, True],
        [F(1, 2), "1/2", "0.5"],
    ),
    # the degree in a 1-tuple, whose entries the test requires to be Fractions
    "weighted_degree exponent": (
        lambda v: (weighted_degree((v, 1), (F(1, 2), F(1, 3))),),
        [1.5, 1.0, True, F(3, 2), "2", None],
        [2, F(2), F(4, 2)],
    ),
    # a weight is read even where its exponent is 0
    "weighted_degree weight": (
        lambda v: (weighted_degree((0, 1), (v, F(1, 3))),),
        [0.5, True, None],
        [F(1, 2), "1/2", "0.5"],
    ),
}


@pytest.mark.parametrize("slot", sorted(ENTRY_SLOTS))
def test_entry_rule(slot):
    build, refused, accepted = ENTRY_SLOTS[slot]
    for value in refused:
        with pytest.raises(TypeError):
            build(value)
    built = [build(value) for value in accepted]
    assert all(b == built[0] for b in built)
    for b in built:
        if isinstance(b, tuple):
            assert all(type(w) is F for w in b)
            continue
        for k, c in b.terms.items():
            assert type(c) in (int, F)
            for x in k if isinstance(k, tuple) else (k,):
                assert type(x) in (int, F)



def test_decimal_exponents_within_the_digit_limit_only():
    assert exact_rational("25e-2") == F(1, 4)
    assert exact_rational("1.5E3") == 1500
    assert exact_rational("1e300") == 10**300
    for text in ("1e-999999999", "1e999999999", "7.25E+123456789"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="decimal exponent .* exceeds the limit"):
            exact_rational(text)
        assert time.perf_counter() - start < 2
    with pytest.raises(ValueError, match="Invalid literal"):
        exact_rational("1e")  # no exponent: Fraction's own message
