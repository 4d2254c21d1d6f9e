"""Every check can fail: each FAIL branch is reached by a planted defect,
handed over by argument (a tampered corpus) or by monkeypatching a name in
``singspec.checks``, and must report FAIL with its message.  These tests keep
the comparisons in the battery from going vacuous."""

import itertools
import random
from fractions import Fraction

import pytest

from singspec import EquivClass, checks, cli
from singspec.fracpoly import FracPoly
from singspec.milnor import MilnorBasis
from singspec.spectrum import Analysis, EigenMultiset


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


# -- every FAIL branch fires ----------------------------------------------------
# Each planter takes (monkeypatch, corpus) and returns the corpus to run the
# battery on, plus the exact (name, detail) list of the checks that must fail.


def _drifted_cusp_formula(monkeypatch, corpus):
    monkeypatch.setattr(checks, "sp_product_formula", lambda ws: FracPoly({Fraction(5, 6): 2}))
    return corpus, [("cusp-benchmark", "cusp values drifted")]


def _swapped_fixture_models(monkeypatch, corpus):
    semistable, cusp = checks.semistable_i2_model, checks.cusp_resolution_model
    monkeypatch.setattr(checks, "semistable_i2_model", cusp)
    monkeypatch.setattr(checks, "cusp_resolution_model", semistable)
    return corpus, [
        ("semistable-fixture", "nonzero class"),
        ("cusp-fixture", "cusp model evaluation drifted"),
    ]


def _wrong_gcd_degree(monkeypatch, corpus):
    (mults, adj, degree, comps), *rest = checks._GCD_TABLE
    monkeypatch.setattr(checks, "_GCD_TABLE", ((mults, adj, degree + 1, comps), *rest))
    return corpus, [("gcd-table", f"degree wrong for {mults}")]


def _wrong_gcd_components(monkeypatch, corpus):
    (mults, adj, degree, comps), *rest = checks._GCD_TABLE
    monkeypatch.setattr(checks, "_GCD_TABLE", ((mults, adj, degree, comps + 1), *rest))
    return corpus, [("gcd-table", f"component count wrong for {mults} + {adj}")]


def _shifted_interval_functional(monkeypatch, corpus):
    # the message names the first random class, which only the stub sees:
    # it writes the expected entry when the battery first calls it
    real, expected = checks.sp_of_class, []

    def shifted(c, n):
        if not expected:
            detail = f"functionals disagree on {c!r} with n={n}"
            expected.append(("class-functional-consistency", detail))
        return real(c, n) + FracPoly({0: 1})

    monkeypatch.setattr(checks, "sp_of_class", shifted)
    return corpus, expected


def _half_integral_mu(monkeypatch, corpus):
    return _replace(corpus, 0, mu_closed=Fraction(5, 2)), [
        ("mu-counts", f"{corpus[0].f}: weight product not integral"),
        ("monodromy-conventions", f"{corpus[0].f}: char poly degree != mu"),
    ]


def _doubled_formula(monkeypatch, corpus):
    doubled = corpus[0].s_formula + corpus[0].s_formula
    return _replace(corpus, 0, s_formula=doubled), [
        ("dual-route-equality", f"routes disagree: {[str(corpus[0].f)]}"),
        ("mu-counts", f"{corpus[0].f}: formula sum disagrees"),
    ]


def _empty_spectral_residues(monkeypatch, corpus):
    monkeypatch.setattr(checks, "spectral_residues", lambda s: EigenMultiset())
    return corpus, [("monodromy-conventions", f"{corpus[0].f}: convention triangle broken")]


def _negation_not_involutive(monkeypatch, corpus):
    # grid spectra are self-conjugate, so a stub that is a true negation
    # would pass; every second call (the round trip) forgets the angles
    real, calls = checks.eigenvalues_geometric, itertools.count()
    monkeypatch.setattr(
        checks,
        "eigenvalues_geometric",
        lambda e: real(e) if next(calls) % 2 == 0 else EigenMultiset(),
    )
    return corpus, [("monodromy-conventions", f"{corpus[0].f}: negation not involutive")]


@pytest.mark.parametrize(
    "plant",
    [
        _drifted_cusp_formula,
        _swapped_fixture_models,
        _wrong_gcd_degree,
        _wrong_gcd_components,
        _shifted_interval_functional,
        _half_integral_mu,
        _doubled_formula,
        _empty_spectral_residues,
        _negation_not_involutive,
    ],
)
def test_every_fail_branch_fires(monkeypatch, corpus, plant):
    tampered, expected = plant(monkeypatch, corpus)
    failed = [(r.name, r.detail) for r in checks.run_all(tampered) if not r.passed]
    assert failed and failed == expected


# -- a library error inside a check is a FAIL line -------------------------------


@pytest.mark.parametrize(
    "s_basis, fail_lines",
    [
        (
            FracPoly({Fraction(1, 3): 1}),
            [
                "FAIL dual-route-equality: routes disagree: ['x^2']",
                "FAIL spectrum-symmetry: not symmetric: ['x^2']",
                "FAIL monodromy-conventions: eigenvalue multiset not Galois-stable at residue 1/3",
            ],
        ),
        (
            FracPoly({Fraction(1, 2): -1}),
            [
                "FAIL dual-route-equality: routes disagree: ['x^2']",
                "FAIL mu-counts: x^2: counts disagree",
                "FAIL monodromy-conventions: coefficient -1 at exponent 1/2",
            ],
        ),
    ],
)
def test_check_exits_1_on_a_corpus_that_makes_a_library_raise(
    capsys, monkeypatch, corpus, s_basis, fail_lines
):
    planted = _replace(corpus, 0, s_basis=s_basis)
    monkeypatch.setattr(checks, "build_corpus", lambda: planted)
    assert cli.main(["check"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 11
    assert [line for line in lines if line.startswith("FAIL ")] == fail_lines
    assert lines[-1] == f"FAILED ({10 - len(fail_lines)}/10 passed)"


def test_an_unexpected_exception_in_a_check_still_propagates(monkeypatch, corpus):
    def broken(*args):
        raise RuntimeError("synthetic fault")

    monkeypatch.setattr(checks, "sp_of_class", broken)
    with pytest.raises(RuntimeError, match="synthetic fault"):
        checks.run_all(corpus)


def test_checks_keep_their_names_and_docstrings():
    assert checks.check_bp_basis_box.__name__ == "check_bp_basis_box"
    assert checks.check_bp_basis_box.__doc__.startswith("Independent oracle for the grid")


# -- the class sampler ------------------------------------------------------------


def randint_class(rng):
    """``random_class`` as it drew before: ``randint``, ``randrange(0, d)``
    and ``choice`` on a fresh list."""
    entries = []
    for _ in range(rng.randint(1, 6)):
        p = rng.randint(-3, 4)
        q = rng.randint(-3, 4)
        d = rng.randint(1, 12)
        k = rng.randrange(0, d) * (checks._ANGLE_DEN // d)
        m = rng.choice([m for m in range(-5, 6) if m])
        entries.append(((p, q, k), m))
    return EquivClass.from_scaled(entries, checks._ANGLE_DEN)


@pytest.mark.parametrize("seed", [90577, 118, 63, 7117, 424243])
def test_sampler_draws_what_the_randint_sampler_drew(seed):
    """The (class, n) sequence of ``check_class_functionals`` for its seed
    and for the seeds of the tests that draw random classes, and the
    generator state after it."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(1000):
        c, n = checks.random_class(ours), ours.randrange(5)
        c0, n0 = randint_class(theirs), theirs.randint(0, 4)
        assert (list(c.scaled.items()), n) == (list(c0.scaled.items()), n0)
    assert ours.getstate() == theirs.getstate()
