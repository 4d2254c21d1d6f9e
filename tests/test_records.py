"""The package's records (``exact.Record``): construction, equality, repr and
immutability as the frozen dataclasses they replaced had them, and an import
chain that loads neither ``dataclasses`` nor ``inspect``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import singspec
from singspec.checks import CheckResult
from singspec.cli import Report
from singspec.milnor import GroebnerBasis, MilnorBasis
from singspec.motivic import VERTICAL, EquivClass, SncComponent, SncModel, Stratum
from singspec.parse import parse_polynomial
from singspec.poly import Polynomial
from singspec.spectrum import Analysis, EigenMultiset, analyze, sp_from_basis, sp_product_formula

_X2 = Polynomial(("x",), {(2,): 1})
_F = parse_polynomial("x^2 + y^3", ("x", "y"))
_WS = (F(1, 2), F(1, 3))
_BASIS = MilnorBasis(("x", "y"), _WS, ((0, 0), (0, 1)))
_V = SncComponent("V", 2, VERTICAL)
_STRATUM = Stratum(("V",), EquivClass({(1, 1, F(1, 2)): -1}))

# (type, field names, field values, a second value of the first field, repr);
# each repr is what the frozen dataclass printed for the same record
CASES = [
    (Report, ("kind", "data"), ("sp", {"mu": 2}), "nearby",
     "Report(kind='sp', data={'mu': 2})"),
    (GroebnerBasis, ("variables", "polynomials"), (("x",), (_X2,)), ("y",),
     "GroebnerBasis(variables=('x',), polynomials=(Polynomial('x^2', vars=('x',)),))"),
    (MilnorBasis, ("variables", "weights", "monomials"), (("x", "y"), _WS, ((0, 0), (0, 1))),
     ("y", "x"),
     "MilnorBasis(variables=('x', 'y'), weights=(Fraction(1, 2), Fraction(1, 3)), "
     "monomials=((0, 0), (0, 1)))"),
    (SncComponent, ("id", "multiplicity", "kind"), ("V", 2, VERTICAL), "W",
     "SncComponent(id='V', multiplicity=2, kind='vertical')"),
    (Stratum, ("ids", "cover_class"), (("V",), _STRATUM.cover_class), ("W",),
     "Stratum(ids=('V',), cover_class=EquivClass({(1,1,1/2): -1}))"),
    (SncModel, ("n", "components", "strata"), (1, (_V,), (_STRATUM,)), 2,
     "SncModel(n=1, components=(SncComponent(id='V', multiplicity=2, kind='vertical'),), "
     "strata=(Stratum(ids=('V',), cover_class=EquivClass({(1,1,1/2): -1})),))"),
    (CheckResult, ("name", "passed", "detail"), ("cusp", True, "ok"), "other",
     "CheckResult(name='cusp', passed=True, detail='ok')"),
    (Analysis, ("f", "basis", "mu_closed", "s_basis", "s_formula"),
     (_F, _BASIS, F(2), sp_from_basis(_BASIS), sp_product_formula(_WS)), _X2,
     "Analysis(f=Polynomial('y^3 + x^2', vars=('x', 'y')), basis=MilnorBasis(variables=('x', 'y'), "
     "weights=(Fraction(1, 2), Fraction(1, 3)), monomials=((0, 0), (0, 1))), "
     "mu_closed=Fraction(2, 1), s_basis=FracPoly('t^(5/6) + t^(7/6)'), "
     "s_formula=FracPoly('t^(5/6) + t^(7/6)'))"),
]


@pytest.mark.parametrize(
    "cls, names, values, other, text", CASES, ids=[c[0].__name__ for c in CASES]
)
def test_record_semantics(cls, names, values, other, text):
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    assert positional == keyword and not positional != keyword
    assert [getattr(positional, name) for name in names] == list(values)
    assert repr(positional) == repr(keyword) == text
    changed = cls(other, *values[1:])
    assert changed != positional and positional != changed
    assert positional != values and positional != object()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(positional, name, getattr(changed, name))
    with pytest.raises(AttributeError):
        positional.extra = 1
    assert repr(positional) == text
    assert copy.copy(positional) == positional
    with pytest.raises(TypeError):
        cls(*values, None)  # one positional argument too many
    with pytest.raises(TypeError):
        cls(*values[:-1])  # the last field missing
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[0]: values[0]})  # a field given twice


def test_records_of_one_type_only_are_equal():
    # equal field values, different record types: unequal, as for dataclasses
    assert CheckResult("V", 2, VERTICAL) != SncComponent("V", 2, VERTICAL)


def test_hash_and_pickle_follow_the_fields():
    v = SncComponent("V", 2, VERTICAL)
    assert hash(CheckResult("a", True, "b")) == hash(CheckResult(name="a", passed=True, detail="b"))
    assert len({v, SncComponent(id="V", multiplicity=2, kind=VERTICAL)}) == 1
    assert pickle.loads(pickle.dumps(v)) == v


_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", list(_COPIES))
@pytest.mark.parametrize(
    "value",
    [
        _F,
        sp_product_formula(_WS),
        EigenMultiset({F(1, 6): 1, F(5, 6): 2}),
        _STRATUM.cover_class,
        SncModel(1, (_V,), (_STRATUM,)),
        analyze(_F),
    ],
    ids=["Polynomial", "FracPoly", "EigenMultiset", "EquivClass", "SncModel", "Analysis"],
)
def test_copy_deepcopy_and_pickle_round_trip(value, how):
    again = _COPIES[how](value)
    assert type(again) is type(value)
    assert again == value and repr(again) == repr(value)
    if isinstance(value, Polynomial):
        assert again.variables == value.variables
        assert again * again == value * value  # a working map, not a shell


def test_defaults_and_derived_members():
    gb = GroebnerBasis(("x",), (_X2,))
    assert gb == GroebnerBasis(variables=("x",), polynomials=(_X2,))
    assert gb.lead_exponents == ((2,),)
    assert len(_BASIS) == 2
    # the constructors still canonicalize what they are given
    assert Stratum(("W", "V"), EquivClass({(0, 0, 0): 1})).ids == ("V", "W")
    w = SncComponent("W", 3, VERTICAL)
    assert SncModel(1, (w, _V), ()).components == (_V, w)


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(singspec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, singspec.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
