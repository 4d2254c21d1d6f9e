import itertools
import json
import math
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from singspec import (
    EquivClass,
    FracPoly,
    HorizontalComponentError,
    MissingStratumWarning,
    ModelFormatError,
    SncComponent,
    SncModel,
    Stratum,
    covering_degree,
    euler_specialization,
    model_from_json,
    model_to_json,
    nearby_fiber_class,
    sp_of_class,
    sp_prime_of_class,
    sp_prime_reduced,
    sp_twist,
)
from singspec.checks import cusp_resolution_model, random_class, semistable_i2_model
from singspec import motivic
from singspec.exact import MAX_DIMENSION
from singspec.motivic import HORIZONTAL, MAX_MODEL_BITS, VERTICAL

F = Fraction
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
L = EquivClass.lefschetz()
ONE = EquivClass({(0, 0, 0): 1})


# -- ring structure ------------------------------------------------------------


def test_constructors():
    assert EquivClass().entries == {}
    assert ONE.entries == {(0, 0, F(0)): 1}
    assert L.entries == {(1, 1, F(0)): 1}


def test_angles_normalized_mod_one():
    assert EquivClass({(0, 0, F(-1, 6)): 1}) == EquivClass({(0, 0, F(5, 6)): 1})
    assert EquivClass({(2, -1, F(7, 6)): 3}) == EquivClass({(2, -1, F(1, 6)): 3})


def test_merging_and_zero_drop():
    c = EquivClass([((0, 0, F(0)), 1), ((0, 0, F(0)), -1), ((1, 0, F(1, 2)), 2)])
    assert c.entries == {(1, 0, F(1, 2)): 2}


def test_ring_axioms_randomized():
    rng = random.Random(118)
    zero = EquivClass()
    for _ in range(150):
        a = random_class(rng)
        b = random_class(rng)
        c = random_class(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * ONE == a
        assert a - a == zero


def test_tensor_grading():
    assert L * L == EquivClass({(2, 2, F(0)): 1})
    half = EquivClass({(0, 0, F(1, 2)): 1})
    assert half * half == ONE
    third = EquivClass({(1, 0, F(1, 3)): 1})
    assert third * third == EquivClass({(2, 0, F(2, 3)): 1})


def test_one_minus_l_binomial():
    one_minus_l = ONE - L
    for k in range(9):
        expected = EquivClass(
            {(j, j, F(0)): (-1) ** j * _binom(k, j) for j in range(k + 1)}
        )
        assert one_minus_l**k == expected


def _binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# -- nearby-fiber evaluation -----------------------------------------------------


def test_single_smooth_component_returns_its_class():
    c = EquivClass({(1, 1, F(0)): 1, (0, 0, F(0)): 2})
    model = SncModel(
        n=1,
        components=(SncComponent("V", 1, VERTICAL),),
        strata=(Stratum(("V",), c),),
    )
    assert nearby_fiber_class(model, "total") == c
    assert nearby_fiber_class(model, "open") == c


def test_semistable_cycle_vanishes():
    model = semistable_i2_model()
    for variant in ("total", "open", "local"):
        assert nearby_fiber_class(model, variant) == EquivClass()
    assert euler_specialization(nearby_fiber_class(model, "total")) == 0


def test_cusp_resolution_class_and_spectrum():
    model = cusp_resolution_model()
    cls = nearby_fiber_class(model, "local")
    assert cls == EquivClass(
        {(0, 0, F(0)): 1, (1, 0, F(1, 6)): -1, (0, 1, F(5, 6)): -1}
    )
    assert euler_specialization(cls) == -1
    sp = sp_prime_reduced(cls, model.n)
    assert sp == FracPoly({F(5, 6): 1, F(7, 6): 1})
    assert sp_twist(sp, 2) == sp


def test_variants_differ_with_horizontal_components():
    cv = EquivClass({(1, 1, F(0)): 1})
    cb = EquivClass({(0, 0, F(0)): 1})
    model = SncModel(
        n=1,
        components=(
            SncComponent("V", 2, VERTICAL),
            SncComponent("H", 1, HORIZONTAL),
        ),
        strata=(Stratum(("V",), cv), Stratum(("V", "H"), cb)),
    )
    # total: both strata count, each with one vertical member (exponent 0)
    assert nearby_fiber_class(model, "total") == cv + cb
    # open: the mixed stratum is excluded
    assert nearby_fiber_class(model, "open") == cv


def test_purely_horizontal_stratum_never_counts():
    cv = EquivClass({(1, 1, F(0)): 1})
    junk = EquivClass({(5, 5, F(0)): 99})
    model = SncModel(
        n=1,
        components=(
            SncComponent("V", 1, VERTICAL),
            SncComponent("H1", 1, HORIZONTAL),
            SncComponent("H2", 1, HORIZONTAL),
        ),
        strata=(
            Stratum(("V",), cv),
            Stratum(("H1",), junk),
            Stratum(("H1", "H2"), junk),
        ),
    )
    assert nearby_fiber_class(model, "total") == cv
    assert nearby_fiber_class(model, "open") == cv


def test_missing_stratum_warns():
    model = SncModel(
        n=1,
        components=(
            SncComponent("V", 1, VERTICAL),
            SncComponent("W", 1, VERTICAL),
        ),
        strata=(Stratum(("V",), ONE),),
    )
    with pytest.warns(MissingStratumWarning):
        nearby_fiber_class(model, "total")


def test_unknown_variant_rejected():
    model = semistable_i2_model()
    with pytest.raises(ValueError):
        nearby_fiber_class(model, "everything")


def test_euler_kills_deeper_strata():
    # euler of the nearby class must equal the euler sum over strata with
    # exactly one vertical member: every deeper stratum carries a factor
    # (1 - L) whose multiplicity sum is zero
    rng = random.Random(7117)
    names = ("A", "B", "C", "H")
    kinds = (VERTICAL, VERTICAL, VERTICAL, HORIZONTAL)
    for _ in range(30):
        comps = tuple(
            SncComponent(nm, rng.randint(1, 6), kd) for nm, kd in zip(names, kinds)
        )
        strata = []
        for r in range(1, 4):
            for ids in itertools.combinations(names, r):
                if rng.random() < 0.6:
                    strata.append(Stratum(ids, random_class(rng)))
        if not strata:
            continue
        model = SncModel(n=2, components=comps, strata=tuple(strata))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MissingStratumWarning)
            total = nearby_fiber_class(model, "total")
        vertical = model.vertical_ids()
        expected = sum(
            euler_specialization(s.cover_class)
            for s in model.strata
            if sum(1 for i in s.ids if i in vertical) == 1
        )
        assert euler_specialization(total) == expected


def _running_sum(model, variant):
    """The evaluator as it was: a running total rebuilt once per stratum."""
    variant = "total" if variant == "local" else variant
    vertical = model.vertical_ids()
    total = EquivClass()
    for s in model.strata:
        k = sum(1 for i in s.ids if i in vertical)
        if k and (variant == "total" or k == len(s.ids)):
            total = total + s.cover_class * (ONE - L) ** (k - 1)
    return total


def _chain_model(rng, length):
    """A chain of vertical components with one horizontal component at each
    end: every component, every adjacent pair and the end triples occur as
    strata, each cover angle a multiple of 1/m for the gcd m of its members."""
    comps = [SncComponent(f"E{i}", rng.randint(1, 30), VERTICAL) for i in range(length)]
    comps += [SncComponent("H0", 1, HORIZONTAL), SncComponent("H1", 1, HORIZONTAL)]
    chain = ["H0", *(c.id for c in comps[:length]), "H1"]
    mult = {c.id: c.multiplicity for c in comps}
    groups = [(i,) for i in chain] + list(zip(chain, chain[1:])) + [tuple(chain[:3]), tuple(chain[-3:])]
    strata = []
    for ids in dict.fromkeys(tuple(sorted(g)) for g in groups):
        m = math.gcd(*(mult[i] for i in ids))
        entries = [
            ((rng.randint(0, 2), rng.randint(0, 2), F(rng.randrange(m), m)), rng.choice((-3, -1, 1, 2)))
            for _ in range(rng.randint(1, 6))
        ]
        strata.append(Stratum(ids, EquivClass(entries)))
    return SncModel(n=2, components=tuple(comps), strata=tuple(strata))


@pytest.mark.parametrize("variant", ["total", "open", "local"])
def test_nearby_class_matches_running_sum(variant):
    models = [semistable_i2_model(), cusp_resolution_model()]
    models += [model_from_json((FIXTURES / name).read_text(encoding="utf-8"))
               for name in ("i2_semistable.json", "cusp_resolution.json")]
    rng = random.Random(4409)
    models += [_chain_model(rng, rng.randint(1, 9)) for _ in range(40)]
    for model in models:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MissingStratumWarning)
            got = nearby_fiber_class(model, variant)
        expected = _running_sum(model, variant)
        assert got == expected and got.den == expected.den
        assert got.items() == expected.items()


# -- covering combinatorics ------------------------------------------------------


def _mult_model(mults, kinds=None):
    kinds = kinds or [VERTICAL] * len(mults)
    return SncModel(
        n=1,
        components=tuple(
            SncComponent(f"c{i}", m, k) for i, (m, k) in enumerate(zip(mults, kinds))
        ),
        strata=(),
    )


def test_covering_degree():
    model = _mult_model((6, 4, 3))
    assert covering_degree(model, ("c0",)) == 6
    assert covering_degree(model, ("c0", "c1")) == 2
    assert covering_degree(model, ("c1", "c2")) == 1
    # with an adjacent component: the C*-component count, here over c0
    assert covering_degree(model, ("c0", "c2")) == 3


def test_covering_degree_monotone_under_enlargement():
    rng = random.Random(5)
    for _ in range(40):
        mults = tuple(rng.randint(1, 60) for _ in range(4))
        model = _mult_model(mults)
        ids = [f"c{i}" for i in range(4)]
        rng.shuffle(ids)
        degs = [covering_degree(model, ids[: k + 1]) for k in range(4)]
        assert all(a >= b for a, b in zip(degs, degs[1:]))
        assert all(b % 1 == 0 and a % b == 0 for a, b in zip(degs, degs[1:]))


def test_covering_degree_rejects_horizontal():
    model = _mult_model((6, 4), kinds=[VERTICAL, HORIZONTAL])
    with pytest.raises(HorizontalComponentError):
        covering_degree(model, ("c0", "c1"))
    with pytest.raises(ValueError):
        covering_degree(model, ())


def test_covering_degree_rejects_unknown_id():
    with pytest.raises(KeyError, match="'c9'"):
        covering_degree(_mult_model((6, 4)), ("c0", "c9"))


# -- spectrum functionals ----------------------------------------------------------


def test_sp_prime_of_class_golden():
    assert sp_prime_of_class(EquivClass({(0, 0, F(5, 6)): 1})) == FracPoly(
        {F(5, 6): 1}
    )
    assert sp_prime_of_class(L) == FracPoly({F(1): 1})
    assert sp_prime_of_class(EquivClass()) == FracPoly()
    mixed = EquivClass({(2, 0, F(1, 3)): -3, (0, 7, F(0)): 2})
    assert sp_prime_of_class(mixed) == FracPoly({F(7, 3): -3, F(0): 2})


def test_sp_of_class_is_twisted_functional():
    rng = random.Random(63)
    for _ in range(300):
        c = random_class(rng)
        n = rng.randint(0, 5)
        assert sp_of_class(c, n) == sp_twist(sp_prime_of_class(c), n)


def test_functionals_read_n_as_an_exact_int():
    # unchecked, a float n is stored (2.0 gives the float key 5.0) and True reads as 1
    c = EquivClass({(1, 0, F(1, 6)): 1})
    for n in (2.5, 2.0, True):
        for functional in (sp_of_class, sp_prime_reduced):
            with pytest.raises(TypeError):
                functional(c, n)
    assert sp_of_class(c, F(2)) == sp_of_class(c, 2) == FracPoly({F(5, 6): 1})
    assert sp_prime_reduced(c, F(2)) == sp_prime_reduced(c, 2) == 1 - FracPoly({F(7, 6): 1})


def test_reduced_class_subtracts_the_int_one():
    assert ONE - 1 == EquivClass()
    assert L - 1 == L - ONE
    assert EquivClass() - 1 == -ONE


def test_sp_prime_reduced_signs():
    c = ONE + EquivClass({(1, 0, F(1, 2)): -1})
    # n = 1: even power of the sign, raw reduced functional
    assert sp_prime_reduced(c, 1) == FracPoly({F(3, 2): -1})
    # n = 2: one sign flip
    assert sp_prime_reduced(c, 2) == FracPoly({F(3, 2): 1})


# -- model files -------------------------------------------------------------------


def test_round_trip_programmatic_models():
    for model in (semistable_i2_model(), cusp_resolution_model()):
        text = model_to_json(model)
        back = model_from_json(text)
        assert back == model
        assert model_to_json(back) == text




def test_fixture_files_round_trip():
    for name, build in (
        ("i2_semistable.json", semistable_i2_model),
        ("cusp_resolution.json", cusp_resolution_model),
    ):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        model = model_from_json(text)
        assert model_to_json(model) == text
        # the battery's built-in models are the fixture files, byte for byte
        assert model_to_json(build()) == text


def test_canonicalization_is_input_order_independent():
    def build(order):
        comps = [
            SncComponent("B", 2, VERTICAL),
            SncComponent("A", 3, VERTICAL),
        ]
        strata = [
            Stratum(("B",), L),
            Stratum(("A",), ONE),
            Stratum(("A", "B"), ONE + L),
        ]
        if order:
            comps.reverse()
            strata.reverse()
        return SncModel(n=1, components=tuple(comps), strata=tuple(strata))

    assert build(False) == build(True)
    assert model_to_json(build(False)) == model_to_json(build(True))


def test_stratum_ids_sorted():
    s = Stratum(("Z", "A"), ONE)
    assert s.ids == ("A", "Z")


_GOOD = {
    "n": 1,
    "components": [{"id": "V", "multiplicity": 1, "kind": "vertical"}],
    "strata": [{"ids": ["V"], "cover_class": [[0, 0, "1/2", 1]]}],
}


def _mutate(**replacements):
    obj = json.loads(json.dumps(_GOOD))
    obj.update(replacements)
    return json.dumps(obj)


def test_model_schema_accepts_good():
    model = model_from_json(json.dumps(_GOOD))
    assert model.n == 1
    assert model.strata[0].cover_class == EquivClass({(0, 0, F(1, 2)): 1})


@pytest.mark.parametrize(
    "text, where",
    [
        ("[]", "/"),
        ("not json", "/"),
        (_mutate(extra=1), "/extra"),
        (_mutate(n=-1), "/n"),
        (_mutate(n=True), "/n"),
        (_mutate(n="1"), "/n"),
        (_mutate(components=[]), "/components"),
        (
            _mutate(components=[{"id": "V", "multiplicity": 0, "kind": "vertical"}]),
            "/components/0/multiplicity",
        ),
        (
            _mutate(components=[{"id": "V", "multiplicity": True, "kind": "vertical"}]),
            "/components/0/multiplicity",
        ),
        (
            _mutate(components=[{"id": "V", "multiplicity": 1, "kind": "diagonal"}]),
            "/components/0/kind",
        ),
        (
            _mutate(components=[{"id": "", "multiplicity": 1, "kind": "vertical"}]),
            "/components/0/id",
        ),
        (
            _mutate(components=[{"id": "V", "multiplicity": 1}]),
            "/components/0",
        ),
        (_mutate(strata=[{"ids": [], "cover_class": []}]), "/strata/0/ids"),
        (_mutate(strata=[{"ids": ["V", "V"], "cover_class": []}]), "/strata/0/ids"),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0, 0.5, 1]]}]),
            "/strata/0/cover_class/0",
        ),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0, "3/2", 1]]}]),
            "/strata/0/cover_class/0",
        ),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0, "1/2", 0]]}]),
            "/strata/0/cover_class/0",
        ),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0, "1/2"]]}]),
            "/strata/0/cover_class/0",
        ),
    ],
)
def test_model_schema_rejects_bad(text, where):
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(text)
    assert (exc.value.location or "/") == where or (exc.value.location or "/").startswith(
        where
    )


@pytest.mark.parametrize(
    "text, where, message",
    [
        (_mutate(components={}), "/components", "components must be a list"),
        (_mutate(components=["V"]), "/components/0", "component must be an object"),
        (_mutate(strata={}), "/strata", "strata must be a list"),
        (_mutate(strata=[["V"]]), "/strata/0", "stratum must be an object"),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": {}}]),
            "/strata/0/cover_class",
            "cover_class must be a list of entries",
        ),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0.0, "1/2", 1]]}]),
            "/strata/0/cover_class/0",
            "p and q must be integers",
        ),
        (
            _mutate(strata=[{"ids": ["V"], "cover_class": [[False, 0, "1/2", 1]]}]),
            "/strata/0/cover_class/0",
            "p and q must be integers",
        ),
    ],
)
def test_model_shape_errors_carry_messages(text, where, message):
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(text)
    assert (exc.value.location, exc.value.message) == (where, message)


def test_model_semantic_errors():
    with pytest.raises(ModelFormatError):
        # stratum references an undeclared component
        model_from_json(
            _mutate(strata=[{"ids": ["W"], "cover_class": []}])
        )
    with pytest.raises(ModelFormatError):
        # no vertical component at all
        model_from_json(
            _mutate(
                components=[{"id": "H", "multiplicity": 1, "kind": "horizontal"}],
                strata=[],
            )
        )
    with pytest.raises(ModelFormatError):
        # duplicate strata
        model_from_json(
            _mutate(
                strata=[
                    {"ids": ["V"], "cover_class": []},
                    {"ids": ["V"], "cover_class": []},
                ]
            )
        )


def test_constructors_check_fields_and_locate_errors():
    v, w = SncComponent("V", 1, VERTICAL), SncComponent("W", 1, VERTICAL)
    for build, where in (
        (lambda: SncComponent("V", True, VERTICAL), "/multiplicity"),
        (lambda: SncComponent("V", 0, VERTICAL), "/multiplicity"),
        (lambda: SncComponent("", 1, VERTICAL), "/id"),
        (lambda: SncComponent("V", 1, "diagonal"), "/kind"),
        (lambda: Stratum(("V", "V"), ONE), "/ids"),
        (lambda: SncModel(n=True, components=(v,), strata=()), "/n"),
        (lambda: SncModel(n=1, components=(v, v), strata=()), "/components"),
        (lambda: SncModel(n=1, components=(v,), strata=(Stratum(("W",), ONE),)), "/strata"),
        (lambda: SncModel(n=MAX_DIMENSION + 1, components=(v,), strata=()), "/n"),
        (lambda: SncModel(n=0, components=(v, w), strata=(Stratum(("V", "W"), ONE),)), "/strata"),
    ):
        with pytest.raises(ModelFormatError) as exc:
            build()
        assert exc.value.location == where
        assert str(exc.value) == f"{exc.value.message} (at {where})"


def test_model_file_errors_prefix_constructor_locations():
    dup = {"id": "V", "multiplicity": 1, "kind": "vertical"}
    for text, where in (
        (_mutate(components=[dup, dup]), "/components"),
        (_mutate(strata=[{"ids": ["W"], "cover_class": []}]), "/strata"),
        (_mutate(strata=[{"ids": ["V", 1], "cover_class": []}]), "/strata/0/ids"),
    ):
        with pytest.raises(ModelFormatError) as exc:
            model_from_json(text)
        assert exc.value.location == where


def test_zero_denominator_angle_is_named():
    text = _mutate(strata=[{"ids": ["V"], "cover_class": [[0, 0, "1/2", 1], [1, 1, "1/0", 1]]}])
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(text)
    assert exc.value.location == "/strata/0/cover_class/1"
    assert str(exc.value) == "bad angle '1/0': zero denominator (at /strata/0/cover_class/1)"


# -- the reader builds each cover class in one pass ------------------------------


def _cover(entries):
    text = _mutate(strata=[{"ids": ["V"], "cover_class": entries}])
    return model_from_json(text).strata[0].cover_class


def test_angle_spellings_give_one_class():
    half = EquivClass({(0, 0, F(1, 2)): 1})
    for angle in ("1/2", "2/4", "0.5", "5e-1", "50/100", " 1/2"):
        got = _cover([[0, 0, angle, 1]])
        assert got == half and got.den == 2 and got.items() == half.items(), angle
    assert _cover([[0, 0, "0", 1], [0, 0, "00/7", 1]]) == EquivClass({(0, 0, 0): 2})


def test_angles_in_non_ascii_digits_are_refused():
    # Fraction would read "١/٢" as 1/2
    for angle, ch in (("١/٢", "١"), ("1/٢", "٢"), ("0.５", "５")):
        with pytest.raises(ModelFormatError) as exc:
            _cover([[0, 0, angle, 1]])
        assert exc.value.location == "/strata/0/cover_class/0"
        assert exc.value.message == f"bad angle {angle!r}: unexpected character {ch!r}"


def test_reader_merges_repeated_entries_and_drops_cancelled_ones():
    got = _cover([[0, 0, "1/2", 1], [1, 1, "1/3", 2], [0, 0, "2/4", 2], [0, 0, "0.5", -3]])
    assert got == EquivClass({(1, 1, F(1, 3)): 2}) and got.den == 3
    got = _cover([[0, 0, "1/6", 1], [0, 0, "1/6", -1]])
    assert got == EquivClass() and got.den == 1 and not got.entries


def _spelled(rng, entry):
    """The entry as one or two model-file entries whose multiplicities sum
    to its own, the angle spelled with a random common factor."""
    (p, q, f), m = entry
    c = rng.randint(1, 4)

    def angle():
        return f"{f.numerator * c}/{f.denominator * c}" if f else rng.choice(("0", "0/3"))

    if rng.random() < 0.5:
        return [[p, q, angle(), m]]
    split = rng.choice([k for k in range(-3, 4) if k and k != m])
    return [[p, q, angle(), split], [p, q, angle(), m - split]]


def test_reader_builds_the_class_of_its_entries():
    rng = random.Random(2208)
    models = [_chain_model(rng, rng.randint(1, 9)) for _ in range(40)]
    models += [cusp_resolution_model(), semistable_i2_model()]
    for model in models:
        obj = json.loads(model_to_json(model))
        for s in obj["strata"]:
            spelled = [
                e for p, q, f, m in s["cover_class"] for e in _spelled(rng, ((p, q, F(f)), m))
            ]
            rng.shuffle(spelled)
            s["cover_class"] = spelled
        back = model_from_json(json.dumps(obj))
        assert back == model
        for s, raw in zip(back.strata, obj["strata"]):
            expected = EquivClass(((p, q, f), m) for p, q, f, m in raw["cover_class"])
            assert s.cover_class == expected and s.cover_class.den == expected.den
            assert s.cover_class.items() == expected.items()


def test_huge_decimal_exponent_angle_is_refused_promptly():
    start = time.perf_counter()
    with pytest.raises(ModelFormatError) as exc:
        _cover([[0, 0, "1/2", 1], [0, 0, "1e-999999999", 1]])
    assert time.perf_counter() - start < 2
    assert exc.value.location == "/strata/0/cover_class/1"
    assert "decimal exponent -999999999 exceeds the limit" in exc.value.message
    assert _cover([[0, 0, "25e-2", 1]]) == EquivClass({(0, 0, F(1, 4)): 1})


def test_angle_lcm_at_the_limit_loads_and_one_bit_more_is_refused():
    # the denominators 2^(B - 1) and 2 have a whole-file lcm of exactly B bits
    d = 2 ** (MAX_MODEL_BITS - 1)
    comps = [{"id": c, "multiplicity": 1, "kind": "vertical"} for c in ("V", "W")]

    def text(*second):
        return json.dumps({"n": 1, "components": comps, "strata": [
            {"ids": ["V"], "cover_class": [[0, 0, f"1/{d}", 1], [1, 0, f"3/{d}", -2]]},
            {"ids": ["W"], "cover_class": [[0, 0, angle, 1] for angle in second]},
        ]})

    model = model_from_json(text("1/2"))
    v, w = (s.cover_class for s in model.strata)
    assert v == EquivClass({(0, 0, F(1, d)): 1, (1, 0, F(3, d)): -2}) and v.den == d
    assert w == EquivClass({(0, 0, F(1, 2)): 1}) and w.den == 2
    total = nearby_fiber_class(model)
    assert total == v + w and total.den == d
    assert sp_prime_of_class(total) == FracPoly({F(1, d): 1, 1 + F(3, d): -2, F(1, 2): 1})
    # 3 * 2^(B - 1) has B + 1 bits: refused at the stratum, before its later entries are read
    for second in (("1/3",), ("1/3", "not an angle")):
        with pytest.raises(ModelFormatError) as exc:
            model_from_json(text(*second))
        assert exc.value.location == "/strata/1/cover_class"
        assert exc.value.message == (
            f"the lcm of the model's angle denominators exceeds the limit of {MAX_MODEL_BITS} bits"
        )


# -- each distinct angle string is read once; the first bad entry is named --------


def _refusal(cover_classes) -> tuple[str, str]:
    """(message, location) of the error that loading strata with these cover classes raises."""
    ids = [f"V{k}" for k in range(len(cover_classes))]
    comps = [{"id": i, "multiplicity": 1, "kind": "vertical"} for i in ids]
    strata = [{"ids": [i], "cover_class": c} for i, c in zip(ids, cover_classes)]
    with pytest.raises(ModelFormatError) as exc:
        model_from_json(json.dumps({"n": 1, "components": comps, "strata": strata}))
    return exc.value.message, exc.value.location


def test_each_distinct_angle_string_is_read_once(monkeypatch):
    read = []
    parse = motivic._parse_angle
    monkeypatch.setattr(motivic, "_parse_angle", lambda raw: read.append(raw) or parse(raw))
    entries = [[p, 0, f"{j}/6", 1] for p in range(3) for j in range(6)]
    comps = [{"id": c, "multiplicity": 6, "kind": "vertical"} for c in ("V", "W")]
    strata = [{"ids": ["V"], "cover_class": entries},
              {"ids": ["W"], "cover_class": [*entries, [0, 1, "1/2", 1], [0, 2, "3/6", 1]]}]
    model = model_from_json(json.dumps({"n": 1, "components": comps, "strata": strata}))
    assert sorted(read) == sorted([f"{j}/6" for j in range(6)] + ["1/2"])
    v, w = (s.cover_class for s in model.strata)
    assert v == EquivClass(((p, 0, F(j, 6)), 1) for p in range(3) for j in range(6))
    assert w == v + EquivClass({(0, 1, F(1, 2)): 1, (0, 2, F(1, 2)): 1})
    assert v.den == w.den == 6


def test_a_repeated_bad_angle_is_named_at_its_first_entry():
    bad = [[0, 0, "0", 1], [0, 0, "1/3", 1], [0, 0, "x/2", 1], [0, 0, "1/3", 1],
           [0, 0, "0", 1], [0, 0, "x/2", 1]]
    message, location = _refusal([bad])
    assert location == "/strata/0/cover_class/2"
    assert message.startswith("bad angle 'x/2': ")
    assert _refusal([[[0, 0, "1/3", 1]], bad])[1] == "/strata/1/cover_class/2"
    # out of range, read once and refused at each of its first entries
    for where, classes in (
        ("/strata/0/cover_class/1", [[[0, 0, "1/2", 1], [0, 0, "3/2", 1], [0, 0, "3/2", 1]]]),
        ("/strata/1/cover_class/0", [[[0, 0, "1/2", 1]], [[0, 0, "3/2", 1], [0, 0, "3/2", 1]]]),
    ):
        assert _refusal(classes) == ("angle '3/2' outside [0, 1)", where)


def test_a_malformed_entry_before_a_repeated_good_angle_is_named_at_its_own_entry():
    good = [0, 0, "1/3", 1]
    for entry, message in (
        ([0, 0, "1/3"], "cover_class entry must be [p, q, angle, mult]"),
        ([True, 0, "1/3", 1], "p and q must be integers"),
        ([0, 0, "1/3", 0], "multiplicity must be a nonzero integer"),
        ([0, 2**MAX_MODEL_BITS, "1/3", 1],
         f"p, q and the multiplicity must have at most {MAX_MODEL_BITS} bits"),
    ):
        assert _refusal([[good, entry, good]]) == (message, "/strata/0/cover_class/1")
        assert _refusal([[good], [entry, good]]) == (message, "/strata/1/cover_class/0")


def test_a_repeated_non_string_angle_is_refused_at_its_first_entry():
    for angle in (0.5, 1, None, True, [1, 2], {"u": 1}):
        entries = [[0, 0, "0", 1], *([[0, 0, angle, 1]] * 3)]
        assert _refusal([entries]) == ("angle must be a string rational", "/strata/0/cover_class/1")


def test_the_lcm_is_refused_at_the_cover_class_that_passes_the_limit():
    # 2^(B - 1), then 3 in a later stratum: the lcm passes B bits there, and a
    # repeated angle that does not change it is read from the first stratum
    d = 2 ** (MAX_MODEL_BITS - 1)
    first = [[0, 0, f"1/{d}", 1], [1, 0, "1/2", 1]]
    message = (
        f"the lcm of the model's angle denominators exceeds the limit of {MAX_MODEL_BITS} bits"
    )
    for second, where in (
        ([[0, 0, f"1/{d}", 1], [0, 0, "1/3", 1], [0, 0, "x", 1]], "/strata/2/cover_class"),
        ([[0, 0, "1/2", 1], [0, 0, "2/3", 1]], "/strata/2/cover_class"),
    ):
        assert _refusal([first, [[0, 0, f"3/{d}", 2]], second]) == (message, where)
    # the same angles in one stratum are refused at that stratum
    assert _refusal([[*first, [0, 0, "1/3", 1]]]) == (message, "/strata/0/cover_class")


def test_deep_nesting_and_huge_ints_are_format_errors():
    for text in ("[" * 100_000, "{" * 100_000, '{"n": 1' + "0" * 5000 + "}"):
        with pytest.raises(ModelFormatError) as exc:
            model_from_json(text)
        assert exc.value.location == ""
        assert exc.value.message.startswith("not valid JSON: ")
