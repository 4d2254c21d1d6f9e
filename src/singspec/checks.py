"""Cross-validation battery behind ``singspec check``.

Every computation that matters is recomputed here by at least two routes and
compared exactly.  The corpus is the Brieskorn-Pham grid (sums of pure powers
x_i^{a_i}, 2 <= a_i <= 6, up to four variables, exponent multisets) plus a
handful of genuinely mixed weighted-homogeneous singularities whose Gröbner
bases are not monomial.  ``build_corpus`` returns it as a tuple of
``spectrum.Analysis`` records, one per case; ``run_all`` takes that tuple
and hands it to each check that reads the corpus, so a caller builds it once
per run.  A FAIL line names a case by its polynomial.  All randomness is
seeded; output is deterministic.

Each check has one failure path (``_check``): a failed comparison raises
``ConsistencyError``, and a library error raised inside it, such as
``NotGaloisStableError``, is its FAIL line the same way; the other checks
still run, so ``singspec check`` exits 1 on a broken corpus, never 2.
"""

import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import ConsistencyError, SingspecError
from .exact import Record
from .fracpoly import FracPoly, sp_twist
from .milnor import milnor_basis
from .motivic import (
    EquivClass,
    SncComponent,
    SncModel,
    Stratum,
    VERTICAL,
    covering_degree,
    euler_specialization,
    nearby_fiber_class,
    sp_of_class,
    sp_prime_of_class,
    sp_prime_reduced,
)
from .parse import parse_polynomial
from .poly import Polynomial, as_weights
from .spectrum import (
    Analysis,
    analyze,
    char_poly,
    eigenvalues_gamma_c,
    eigenvalues_geometric,
    sp_from_basis,
    sp_product_formula,
    spectral_residues,
)


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")


_VARS = ("x", "y", "z", "w")


def brieskorn_pham_exponents():
    """Exponent multisets of the grid, smallest cases first."""
    for n in range(1, 5):
        yield from itertools.combinations_with_replacement(range(2, 7), n)


def _bp_polynomial(exps) -> Polynomial:
    variables = _VARS[: len(exps)]
    return Polynomial(
        variables,
        {
            tuple(a if j == i else 0 for j in range(len(exps))): 1
            for i, a in enumerate(exps)
        },
    )


_EXTRA_CASES = (
    ("x^2*y + y^4", ("x", "y"), ("3/8", "1/4")),
    ("x^3 + x*y^3", ("x", "y"), ("1/3", "2/9")),
    ("x^3*y + y^5", ("x", "y"), ("4/15", "1/5")),
    ("x^2*y + y^3 + z^3", ("x", "y", "z"), ("1/3", "1/3", "1/3")),
)


def build_corpus() -> tuple[Analysis, ...]:
    """The grid cases in enumeration order, then the mixed ones."""
    grid = (
        analyze(_bp_polynomial(exps), tuple(Fraction(1, a) for a in exps))
        for exps in brieskorn_pham_exponents()
    )
    mixed = (
        analyze(parse_polynomial(text, variables), weights)
        for text, variables, weights in _EXTRA_CASES
    )
    return (*grid, *mixed)


def bp_case_count() -> int:
    return sum(1 for _ in brieskorn_pham_exponents())


# -- fixture models -----------------------------------------------------------


def semistable_i2_model() -> SncModel:
    """Two lines of multiplicity one crossing in two points (a cycle of two
    rational curves): the special fiber of a semistable elliptic degeneration."""
    # each punctured line is a C*: H^1_c one class of weight 0 (sign -1),
    # H^2_c the Tate class; the two crossing points carry trivial covers
    cstar = EquivClass({(1, 1, 0): 1, (0, 0, 0): -1})
    points = EquivClass({(0, 0, 0): 2})
    return SncModel(
        n=1,
        components=(
            SncComponent("V1", 1, VERTICAL),
            SncComponent("V2", 1, VERTICAL),
        ),
        strata=(
            Stratum(("V1",), cstar),
            Stratum(("V2",), cstar),
            Stratum(("V1", "V2"), points),
        ),
    )


def cusp_resolution_model() -> SncModel:
    """Embedded resolution of the plane cusp x^2 + y^3 over the origin.

    Exceptional curves E1, E2, E3 with multiplicities 2, 3, 6 and the strict
    transform S with multiplicity 1; E3 meets the other three.  Cover classes
    are spelled out per stratum, angle-decomposed, compact-support signs
    folded in:

    * over E1° and E2° (affine lines) the covers split into 2 resp. 3 lines
      permuted cyclically, so H^2_c carries the full character set;
    * over E3° (a thrice-punctured line) the cover w^6 = z^2 (z-1)^3 is
      connected of Euler characteristic -6; its H^1_c has a five-dimensional
      weight-0 part (boundary points minus the component class) and a
      weight-1 part from the genus-1 compactification whose holomorphic form
      z (z-1)^2 dz / w^5 sits at angle 1/6;
    * pair strata are gcd-many points permuted transitively.
    """
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    e1 = EquivClass({(1, 1, 0): 1, (1, 1, half): 1})
    e2 = EquivClass({(1, 1, 0): 1, (1, 1, third): 1, (1, 1, 2 * third): 1})
    e3 = EquivClass(
        {
            (1, 1, 0): 1,
            (1, 0, Fraction(1, 6)): -1,
            (0, 1, Fraction(5, 6)): -1,
            (0, 0, 0): -2,
            (0, 0, half): -1,
            (0, 0, third): -1,
            (0, 0, 2 * third): -1,
        }
    )
    e1_e3 = EquivClass({(0, 0, 0): 1, (0, 0, half): 1})
    e2_e3 = EquivClass({(0, 0, 0): 1, (0, 0, third): 1, (0, 0, 2 * third): 1})
    e3_s = EquivClass({(0, 0, 0): 1})
    return SncModel(
        n=2,
        components=(
            SncComponent("E1", 2, VERTICAL),
            SncComponent("E2", 3, VERTICAL),
            SncComponent("E3", 6, VERTICAL),
            SncComponent("S", 1, VERTICAL),
        ),
        strata=(
            Stratum(("E1",), e1),
            Stratum(("E2",), e2),
            Stratum(("E3",), e3),
            Stratum(("E1", "E3"), e1_e3),
            Stratum(("E2", "E3"), e2_e3),
            Stratum(("E3", "S"), e3_s),
        ),
    )


# -- random classes (criterion: the two spectrum functionals agree) ------------


# every angle of a random class is k/d with d <= 12
_ANGLE_DEN = math.lcm(*range(1, 13))
_MULTIPLICITIES = tuple(m for m in range(-5, 6) if m)


def random_class(rng: random.Random) -> EquivClass:
    """1 to 6 entries, each with p and q in [-3, 4], an angle k/d with
    0 <= k < d <= 12 and a nonzero multiplicity in [-5, 5].

    Each draw is one ``randrange`` or ``choice`` call; ``randrange(hi - lo
    + 1) + lo`` consumes the generator exactly as ``randint(lo, hi)`` does,
    in fewer calls."""
    entries = []
    for _ in range(rng.randrange(6) + 1):
        p = rng.randrange(8) - 3
        q = rng.randrange(8) - 3
        d = rng.randrange(12) + 1
        k = rng.randrange(d) * (_ANGLE_DEN // d)
        entries.append(((p, q, k), rng.choice(_MULTIPLICITIES)))
    return EquivClass.from_scaled(entries, _ANGLE_DEN)


# -- the checks ----------------------------------------------------------------


def _check(name: str):
    """Turn a body that returns its PASS detail or raises into the check
    ``name``; the only place in the module that builds a ``CheckResult``.
    A ``ConsistencyError`` (a failed comparison) or ``SingspecError`` from the
    body is a FAIL with the exception's message; any other exception
    propagates, as a bug rather than a failed comparison."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args) -> CheckResult:
            try:
                passed, detail = True, body(*args)
            except (ConsistencyError, SingspecError) as exc:
                passed, detail = False, str(exc)
            return CheckResult(name, passed, detail)

        return check

    return decorate


@_check("dual-route-equality")
def check_bp_dual_route(corpus):
    bad = [str(c.f) for c in corpus if c.s_basis != c.s_formula]
    if bad:
        raise ConsistencyError(f"routes disagree: {bad[:5]}")
    count = bp_case_count()
    return f"basis route == product formula on {count} grid cases + {len(_EXTRA_CASES)} mixed"


@_check("grid-basis-box")
def check_bp_basis_box(corpus):
    """Independent oracle for the grid: the Jacobian ideal of a sum of pure
    powers is monomial, so the standard monomials are exactly the box with
    exponent_i <= a_i - 2.  Compared against the bases the corpus holds,
    which must be the grid cases in enumeration order followed by the
    mixed ones."""
    count = bp_case_count()
    if len(corpus) != count + len(_EXTRA_CASES):
        raise ConsistencyError(
            f"corpus holds {len(corpus)} cases, expected {count} grid + {len(_EXTRA_CASES)} mixed"
        )
    for case, exps in zip(corpus, brieskorn_pham_exponents()):
        if case.f != _bp_polynomial(exps):
            raise ConsistencyError(f"corpus case {case.f} is not the grid case {exps}")
        box = set(itertools.product(*(range(a - 1) for a in exps)))
        if set(case.basis.monomials) != box or len(case.basis) != math.prod(a - 1 for a in exps):
            raise ConsistencyError(f"box mismatch at {exps}")
    return f"standard monomials match the closed-form box on {count} cases"


@_check("cusp-benchmark")
def check_cusp_benchmark():
    f = parse_polynomial("x^2 + y^3", ("x", "y"))
    ws = as_weights(("1/2", "1/3"))
    basis = milnor_basis(f, ws)
    expected = FracPoly({Fraction(5, 6): 1, Fraction(7, 6): 1})
    if not (
        basis.monomials == ((0, 0), (0, 1))
        and sp_from_basis(basis) == expected
        and sp_product_formula(ws) == expected
        and str(expected) == "t^(5/6) + t^(7/6)"
    ):
        raise ConsistencyError("cusp values drifted")
    return "x^2 + y^3: basis {1, y}, both routes give t^(5/6) + t^(7/6)"


@_check("spectrum-symmetry")
def check_symmetry_all(corpus):
    bad = [str(c.f) for c in corpus if c.s_basis != sp_twist(c.s_basis, len(c.f.variables))]
    if bad:
        raise ConsistencyError(f"not symmetric: {bad[:5]}")
    return f"s == t^n iota(s) on all {len(corpus)} corpus cases"


@_check("mu-counts")
def check_mu_counts(corpus):
    for c in corpus:
        if c.mu_closed.denominator != 1:
            raise ConsistencyError(f"{c.f}: weight product not integral")
        mu = c.mu_closed.numerator
        if c.s_basis.coefficient_sum() != mu or len(c.basis) != mu:
            raise ConsistencyError(f"{c.f}: counts disagree")
        if c.s_formula.coefficient_sum() != mu:
            raise ConsistencyError(f"{c.f}: formula sum disagrees")
    return "coefficient sum == weight product == standard monomial count on every case"


@_check("monodromy-conventions")
def check_monodromy_conventions(corpus):
    # char_poly builds its polynomial from an int list: integral by construction
    for c in corpus:
        eig = eigenvalues_gamma_c(c.s_basis)
        geo = eigenvalues_geometric(eig)
        if geo != spectral_residues(c.s_basis):
            raise ConsistencyError(f"{c.f}: convention triangle broken")
        if eigenvalues_geometric(geo) != eig:
            raise ConsistencyError(f"{c.f}: negation not involutive")
        if char_poly(eig).total_degree() != c.mu_closed.numerator:
            raise ConsistencyError(f"{c.f}: char poly degree != mu")
    return "angle negation closes the convention triangle; char polys integral of degree mu"


@_check("semistable-fixture")
def check_semistable_fixture():
    model = semistable_i2_model()
    total = nearby_fiber_class(model, "total")
    if not (
        total == EquivClass()
        and euler_specialization(total) == 0
        and nearby_fiber_class(model, "open") == EquivClass()
    ):
        raise ConsistencyError("nonzero class")
    return "two-line cycle: nearby class 0, Euler number 0"


@_check("cusp-fixture")
def check_cusp_fixture():
    model = cusp_resolution_model()
    cls = nearby_fiber_class(model, "local")
    expected_cls = EquivClass(
        {(0, 0, 0): 1, (1, 0, Fraction(1, 6)): -1, (0, 1, Fraction(5, 6)): -1}
    )
    spectrum = sp_prime_reduced(cls, model.n)
    expected_sp = FracPoly({Fraction(5, 6): 1, Fraction(7, 6): 1})
    euler = euler_specialization(cls)
    if not (
        cls == expected_cls
        and spectrum == expected_sp
        and sp_twist(spectrum, model.n) == expected_sp
        and euler == -1
        and euler == 2 + 3 - 6
    ):
        raise ConsistencyError("cusp model evaluation drifted")
    return "resolution model gives t^(5/6) + t^(7/6) and Euler -1 = 2 + 3 - 6"


_GCD_TABLE = (
    # (stratum multiplicities, adjacent multiplicity, degree, components)
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


@_check("gcd-table")
def check_gcd_table():
    """``covering_degree(model, names)`` gives the degree column, and
    ``covering_degree(model, (*names, "adj"))``, the gcd taken over the
    adjacent component as well, gives the C*-component column."""
    for mults, adj, degree, comps in _GCD_TABLE:
        names = tuple(f"c{i}" for i in range(len(mults)))
        model = SncModel(
            n=1,
            components=tuple(
                SncComponent(name, m, VERTICAL) for name, m in zip(names, mults)
            )
            + (SncComponent("adj", adj, VERTICAL),),
            strata=(),
        )
        if covering_degree(model, names) != degree:
            raise ConsistencyError(f"degree wrong for {mults}")
        if covering_degree(model, (*names, "adj")) != comps:
            raise ConsistencyError(f"component count wrong for {mults} + {adj}")
    return f"cover degree and C*-component count on {len(_GCD_TABLE)} tuples"


@_check("class-functional-consistency")
def check_class_functionals():
    rng = random.Random(90577)
    trials = 1000
    for _ in range(trials):
        c = random_class(rng)
        n = rng.randrange(5)
        if sp_twist(sp_prime_of_class(c), n) != sp_of_class(c, n):
            raise ConsistencyError(f"functionals disagree on {c!r} with n={n}")
    return f"twisted functional == interval functional on {trials} random classes"


def run_all(corpus) -> list[CheckResult]:
    """Every check; the five corpus checks read ``corpus``, a tuple as
    ``build_corpus`` returns it."""
    return [
        check_bp_dual_route(corpus),
        check_bp_basis_box(corpus),
        check_cusp_benchmark(),
        check_symmetry_all(corpus),
        check_mu_counts(corpus),
        check_monodromy_conventions(corpus),
        check_semistable_fixture(),
        check_cusp_fixture(),
        check_gcd_table(),
        check_class_functionals(),
    ]
