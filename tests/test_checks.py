"""Every check that reads the corpus can fail: each one is handed a corpus
with one planted defect, by argument, and must report FAIL with its message.
These tests keep the comparisons in the battery from going vacuous."""

import pytest

from singspec import checks
from singspec.milnor import MilnorBasis
from singspec.spectrum import Analysis


@pytest.fixture(scope="module")
def corpus():
    return checks.build_corpus()


def _with(case, **fields):
    """``case`` with the given fields replaced, built through the constructor."""
    values = {name: getattr(case, name) for name in Analysis.__slots__}
    return Analysis(**{**values, **fields})


def _replace(corpus, i, **fields):
    return corpus[:i] + (_with(corpus[i], **fields),) + corpus[i + 1 :]


def _drop_monomial(corpus):
    b = corpus[7].basis
    return _replace(corpus, 7, basis=MilnorBasis(b.variables, b.weights, b.monomials[:-1]))


def _drop_grid_case(corpus):
    # one grid case too few, with nothing after it to misalign
    return corpus[: checks.bp_case_count() - 1]


def _foreign_polynomial(corpus):
    return _replace(corpus, 30, f=corpus[31].f)


def _first(corpus, wanted):
    return next(i for i, case in enumerate(corpus) if wanted(case))


def test_the_battery_passes_on_the_corpus(corpus):
    results = checks.run_all(corpus)
    assert [r.passed for r in results] == [True] * 10


def test_box_check_passes_on_the_corpus(corpus):
    assert checks.check_bp_basis_box(corpus).passed


@pytest.mark.parametrize("tamper", [_drop_monomial, _drop_grid_case, _foreign_polynomial])
def test_box_check_fails_on_a_tampered_corpus(corpus, tamper):
    result = checks.check_bp_basis_box(tamper(corpus))
    assert not result.passed
    assert result.name == "grid-basis-box"


def test_dual_route_check_fails_on_a_swapped_formula(corpus):
    tampered = _replace(corpus, 7, s_formula=corpus[8].s_formula)
    result = checks.check_bp_dual_route(tampered)
    assert result.passed is False
    assert result.name == "dual-route-equality"
    assert result.detail == f"routes disagree: {[str(corpus[7].f)]}"


def test_symmetry_check_fails_on_a_spectrum_of_another_dimension(corpus):
    n = len(corpus[0].f.variables)
    other = _first(corpus, lambda case: len(case.f.variables) != n)
    tampered = _replace(corpus, 0, s_basis=corpus[other].s_basis)
    result = checks.check_symmetry_all(tampered)
    assert result.passed is False
    assert result.name == "spectrum-symmetry"
    assert result.detail == f"not symmetric: {[str(corpus[0].f)]}"


def test_mu_count_check_fails_on_a_dropped_monomial(corpus):
    result = checks.check_mu_counts(_drop_monomial(corpus))
    assert result.passed is False
    assert result.name == "mu-counts"
    assert result.detail == f"{corpus[7].f}: counts disagree"


def test_monodromy_check_fails_on_a_spectrum_of_another_mu(corpus):
    other = _first(corpus, lambda case: case.mu_closed != corpus[0].mu_closed)
    tampered = _replace(corpus, 0, s_basis=corpus[other].s_basis)
    result = checks.check_monodromy_conventions(tampered)
    assert result.passed is False
    assert result.name == "monodromy-conventions"
    assert result.detail == f"{corpus[0].f}: char poly degree != mu"


def test_a_planted_defect_fails_only_its_own_checks(corpus):
    tampered = _replace(corpus, 7, s_formula=corpus[8].s_formula)
    failed = [r.name for r in checks.run_all(tampered) if not r.passed]
    assert failed == ["dual-route-equality", "mu-counts"]
