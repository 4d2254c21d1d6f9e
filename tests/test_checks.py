"""The grid-basis-box check compares the closed-form box with the bases the
corpus holds; these tests keep that comparison from going vacuous."""

import pytest

from singspec import checks
from singspec.milnor import MilnorBasis


def _with(case, **fields):
    """``case`` with the given fields replaced, built through the constructor."""
    values = {name: getattr(case, name) for name in type(case).__slots__}
    return checks.CorpusCase(**{**values, **fields})


def _drop_monomial(corpus):
    case = corpus[7]
    basis = MilnorBasis(case.basis.variables, case.basis.weights, case.basis.monomials[:-1])
    return corpus[:7] + (_with(case, basis=basis),) + corpus[8:]


def _drop_grid_case(corpus):
    # one grid case too few, with nothing after it to misalign
    return corpus[: checks.bp_case_count() - 1]


def _foreign_polynomial(corpus):
    return corpus[:30] + (_with(corpus[30], f=corpus[31].f),) + corpus[31:]


def test_box_check_passes_on_the_corpus():
    assert checks.check_bp_basis_box().passed


@pytest.mark.parametrize("tamper", [_drop_monomial, _drop_grid_case, _foreign_polynomial])
def test_box_check_fails_on_a_tampered_corpus(monkeypatch, tamper):
    tampered = tamper(checks.build_corpus())
    monkeypatch.setattr(checks, "build_corpus", lambda: tampered)
    result = checks.check_bp_basis_box()
    assert not result.passed
    assert result.name == "grid-basis-box"
