"""Acceptance suite: ten release criteria, one test (= one pass/fail line
under ``pytest -v``) per criterion.  Every comparison is exact; there are no
tolerances anywhere.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from singspec import (
    EquivClass,
    FracPoly,
    Polynomial,
    SncComponent,
    SncModel,
    char_poly,
    covering_degree,
    eigenvalues_gamma_c,
    eigenvalues_geometric,
    euler_specialization,
    load_model,
    milnor_basis,
    milnor_number,
    nearby_fiber_class,
    parse_polynomial,
    sp_from_basis,
    sp_of_class,
    sp_prime_of_class,
    sp_prime_reduced,
    sp_product_formula,
    sp_twist,
    spectral_residues,
)
from singspec.checks import build_corpus, random_class
from singspec.motivic import VERTICAL

F = Fraction
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
CUSP_SPECTRUM = FracPoly({F(5, 6): 1, F(7, 6): 1})


def _grid():
    for n in range(1, 5):
        yield from itertools.combinations_with_replacement(range(2, 7), n)


def test_criterion_01_dual_route_equality_on_grid_under_60s():
    variables = ("x", "y", "z", "w")
    start = time.monotonic()
    count = 0
    for exps in _grid():
        vs = variables[: len(exps)]
        f = Polynomial(
            vs,
            {
                tuple(a if j == i else 0 for j in range(len(exps))): 1
                for i, a in enumerate(exps)
            },
        )
        ws = tuple(F(1, a) for a in exps)
        assert sp_from_basis(milnor_basis(f, ws)) == sp_product_formula(ws), exps
        count += 1
    elapsed = time.monotonic() - start
    assert count == 125 and count >= 100
    assert elapsed < 60.0, f"grid took {elapsed:.1f}s"


def test_criterion_02_cusp_benchmark():
    f = parse_polynomial("x^2 + y^3", ("x", "y"))
    ws = (F(1, 2), F(1, 3))
    basis = milnor_basis(f, ws)
    assert basis.monomials == ((0, 0), (0, 1))  # {1, y}
    assert milnor_number(f, ws) == 2
    assert sp_from_basis(basis) == CUSP_SPECTRUM
    assert sp_product_formula(ws) == CUSP_SPECTRUM


def test_criterion_03_symmetry_for_every_corpus_spectrum():
    for case in build_corpus():
        n = len(case.f.variables)
        assert case.s_basis == sp_twist(case.s_basis, n), str(case.f)
        assert case.s_formula == sp_twist(case.s_formula, n), str(case.f)


def test_criterion_04_mu_counts_agree_three_ways():
    for case in build_corpus():
        closed = case.mu_closed
        assert closed.denominator == 1, str(case.f)
        mu = closed.numerator
        assert case.s_basis.coefficient_sum() == mu, str(case.f)
        assert case.s_formula.coefficient_sum() == mu, str(case.f)
        assert len(case.basis) == mu, str(case.f)


def test_criterion_05_monodromy_conventions():
    for case in build_corpus():
        eig = eigenvalues_gamma_c(case.s_basis)
        assert eigenvalues_geometric(eig) == spectral_residues(case.s_basis), str(case.f)
        assert eigenvalues_geometric(eigenvalues_geometric(eig)) == eig, str(case.f)
        cp = char_poly(eig)
        mu = case.mu_closed.numerator
        assert cp.total_degree() == mu, str(case.f)
        assert all(c.denominator == 1 for c in cp.terms.values()), str(case.f)


def test_criterion_06_semistable_two_component_fixture():
    model = load_model(FIXTURES / "i2_semistable.json")
    cls = nearby_fiber_class(model, "total")
    assert cls == EquivClass()
    assert euler_specialization(cls) == 0
    assert nearby_fiber_class(model, "open") == EquivClass()


def test_criterion_07_cusp_resolution_fixture():
    model = load_model(FIXTURES / "cusp_resolution.json")
    mults = sorted(c.multiplicity for c in model.components)
    assert mults == [1, 2, 3, 6]
    cls = nearby_fiber_class(model, "local")
    spectrum = sp_prime_reduced(cls, model.n)
    assert spectrum == CUSP_SPECTRUM
    assert sp_twist(spectrum, model.n) == CUSP_SPECTRUM
    mu = 2
    assert euler_specialization(cls) == 1 - mu == -1
    assert euler_specialization(cls) == 2 + 3 - 6


def test_criterion_08_gcd_covering_table():
    table = (
        ((6,), 4, 6, 2),
        ((6,), 1, 6, 1),
        ((2, 4), 3, 2, 1),
        ((12, 18), 8, 6, 2),
        ((5, 10, 15), 20, 5, 5),
        ((7,), 7, 7, 7),
        ((9, 6), 15, 3, 3),
        ((8, 12), 10, 4, 2),
        ((30, 42), 70, 6, 2),
        ((16, 24), 40, 8, 8),
    )
    assert len(table) == 10
    for mults, adj, degree, comps in table:
        # the frozen expectations themselves restate the gcd definition
        assert degree == math.gcd(*mults)
        assert comps == math.gcd(degree, adj)
        names = tuple(f"c{i}" for i in range(len(mults)))
        model = SncModel(
            n=1,
            components=tuple(
                SncComponent(nm, m, VERTICAL) for nm, m in zip(names, mults)
            )
            + (SncComponent("adj", adj, VERTICAL),),
            strata=(),
        )
        assert covering_degree(model, names) == degree
        assert covering_degree(model, (*names, "adj")) == comps


def test_criterion_09_spectrum_functionals_agree_on_1000_random_classes():
    rng = random.Random(424243)
    for _ in range(1000):
        c = random_class(rng)
        n = rng.randint(0, 4)
        assert sp_twist(sp_prime_of_class(c), n) == sp_of_class(c, n)


def test_criterion_10_check_json_byte_identical_across_runs():
    cmd = [sys.executable, "-m", "singspec", "check", "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
