"""Singularity spectra by two independent routes, and monodromy eigenvalue data.

Routes:

* weight product formula: the product over variables of
  (t - t^{w_i}) / (t^{w_i} - 1), evaluated by substituting s = t^{1/m}
  (m = least common multiple of the weight denominators): one map d -> e_d
  of binomials (s^d - 1)^e_d that ``_binomial_product`` evaluates on one
  integer coefficient list, each pass linear in the list length (every
  division exact and the quotient non-negative);
* basis route: one term t^{l(g) + sum(w)} per standard monomial g of the
  Milnor algebra, l = weighted degree; the integer degrees
  m * (l(g) + sum(w)) are counted with a ``Counter``, so the map is built
  from one pair per distinct degree.

Each route builds its own ``FracPoly`` straight from integer exponents over
its own m; an exponent never becomes a Fraction on the way.

For an isolated weighted-homogeneous singularity the two must agree exactly,
the spectrum is a fixed point of ``sp_twist(s, n)`` (exponent a -> n - a), and
the coefficient sum is the Milnor number.

``analyze`` gathers what ``singspec sp`` and the check battery both need in
one ``Analysis`` record: the polynomial, its Milnor basis from a single
Gröbner run on weights settled first (given, or inferred; the basis keeps
them, and its size is the standard-monomial count), the closed form
mu = prod(1/w_i - 1), and the spectrum from each route.  It compares nothing;
each consumer compares the two spectra and the two counts for itself.  The
battery's corpus is a tuple of these records.

Eigenvalue conventions (one sign flip apart; both are exposed):

* ``eigenvalues_gamma_c``: a spectrum term t^a yields the residue (-a) mod 1,
  the angle of the monodromy acting on nearby-cycle / local-system cohomology;
* ``eigenvalues_geometric``: angles negated, the action pulled back along the
  geometric monodromy itself -- equal to the multiset {a mod 1} read directly
  off the spectrum.

The characteristic polynomial of a Galois-stable multiset is a product of
cyclotomic polynomials, turned by the Möbius identity
Phi_n = prod over d | n of (T^d - 1)^mu(n/d) into one exponent map for the
same ``_binomial_product``; Galois stability is a count against phi(v),
read off the prime factorization of v that the Möbius step takes anyway.
``_binomial_product`` checks its work (passes times longest list) against
MAX_BINOMIAL_WORK before the first pass: the char poly's coefficients grow
with mu, and a sum of 16 cubes would run for minutes.  Angles, like
exponents, are stored as int numerators over one denominator per multiset.
"""

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from .errors import (
    ConsistencyError,
    NegativeMultiplicityError,
    NonExactDivisionError,
    NotGaloisStableError,
    ResourceLimitError,
)
from .fracpoly import FracPoly
from .milnor import MilnorBasis, _closed_mu, milnor_basis
from .poly import (
    ExactMap,
    Polynomial,
    Record,
    _scaled_weights,
    as_weights,
    exact_int,
    exact_rational,
    infer_weights,
    ratio,
    shown,
)

# budget on n * m + 1, which bounds the length of every coefficient list the
# product formula builds; x^30+y^31+z^37 needs 103,231
MAX_DENSE = 1_000_000

# budget on the work of ``_binomial_product``, sum |e_d| passes times the
# longest list; no product formula inside MAX_DIMENSION and MAX_DENSE comes
# near it (2 * 32 * MAX_DENSE).  On one 2-core Xeon, Python 3.11, `sp` of
# sum x_i^3 in 14 variables (89,494,870) takes 6-8 s and sum x_i^9 in 5
# (119,348,340) 5 s; sum x_i^3 in 15 (357,979,480) took 30 s
MAX_BINOMIAL_WORK = 125_000_000

# -- dense one-variable integer polynomials (index = degree) -----------------


def _binomial_product(exps) -> list | None:
    """prod over d of (T^d - 1)^exps[d], or None when it leaves a remainder.

    Every positive power goes in before the first division: one division
    alone need not be exact, but when the whole product is, every division
    of the sequence is.  Dividing by T^d - 1 is a suffix sum along each
    residue class of the exponent mod d; the sums that land on degrees below
    d are the remainder.

    Raises ResourceLimitError before the first pass when the work, the
    number of passes sum |e_d| times the longest list 1 + sum of d * e_d
    over e_d > 0, exceeds MAX_BINOMIAL_WORK: past it one product runs for
    more than seconds, and its coefficients, which grow by a bit or so per
    pass, can pass the 4,300 digits ``str`` converts."""
    work = sum(map(abs, exps.values())) * (1 + sum(d * e for d, e in exps.items() if e > 0))
    if work > MAX_BINOMIAL_WORK:
        raise ResourceLimitError(
            f"dense work {shown(work)} of the binomial product exceeds the limit of "
            f"{MAX_BINOMIAL_WORK}"
        )
    a = [1]
    for d, e in sorted(exps.items()):
        for _ in range(e):
            a = [x - y for x, y in zip([0] * d + a, a + [0] * d)]
    for d, e in sorted(exps.items()):
        for _ in range(-e):
            for r in range(d):
                a[r::d] = list(accumulate(a[r::d][::-1]))[::-1]
            if any(a[:d]):
                return None
            a = a[d:]
    return a


# -- the two spectrum routes --------------------------------------------------


def sp_product_formula(weights) -> FracPoly:
    """Spectrum from the weights alone.

    With s = t^(1/m) and c_i = m * w_i it reads
    s^(sum c_i) * prod (s^(m - c_i) - 1) / prod (s^(c_i) - 1): one map
    Counter(m - c_i) - Counter(c_i) for ``_binomial_product``, where equal
    binomials cancel (a factor's quotient alone may not be a polynomial).

    Raises ResourceLimitError before allocating when n * m + 1 exceeds
    MAX_DENSE, and NonExactDivisionError on a remainder or a negative
    coefficient: the weights are not those of an isolated singularity.
    """
    ws = as_weights(weights)
    m = math.lcm(*(w.denominator for w in ws)) if ws else 1
    if len(ws) * m + 1 > MAX_DENSE:
        raise ResourceLimitError(
            f"dense length {shown(len(ws) * m + 1)} of the weight product exceeds "
            f"the limit of {MAX_DENSE}"
        )
    cs = [w.numerator * (m // w.denominator) for w in ws]
    exps = Counter(m - c for c in cs)
    exps.subtract(cs)
    coeffs = _binomial_product(exps)
    if coeffs is None:
        raise NonExactDivisionError(f"weight product for {tuple(map(str, ws))} leaves a remainder")
    if any(x < 0 for x in coeffs):
        raise NonExactDivisionError(
            f"weight product for {tuple(map(str, ws))} has a negative coefficient"
        )
    shift = sum(cs)
    return FracPoly.from_scaled(((e + shift, c) for e, c in enumerate(coeffs) if c), m)


def sp_from_basis(basis: MilnorBasis) -> FracPoly:
    """Spectrum as the weighted-degree distribution of the standard monomials,
    shifted by the weight sum, in ints over the m of ``poly._scaled_weights``."""
    m, c = _scaled_weights(basis.weights)
    shift = sum(c)
    counts = Counter(sum(map(operator.mul, c, g)) + shift for g in basis.monomials)
    return FracPoly.from_scaled(counts.items(), m)


class Analysis(Record):
    """What ``analyze`` found for the polynomial ``f``: its Milnor basis
    (which holds the weights, and whose size is the standard-monomial count),
    the closed form ``mu_closed``, and the spectrum from each route."""

    __slots__ = ("f", "basis", "mu_closed", "s_basis", "s_formula")


def analyze(f: Polynomial, weights=None) -> Analysis:
    """Milnor basis, closed-form mu and both spectra of f, with one Gröbner run.

    The weights come first: the given ones, or ``infer_weights(f)`` when
    ``weights`` is None.  ``milnor_basis`` then checks homogeneity, checks
    MAX_MU from the closed form, runs the Gröbner core once and reads only
    the leads of its minimal basis (no reduced basis is built), tests
    isolation on those leads and enumerates the standard monomials; so a
    weight error outranks non-isolation, and no Gröbner work is done for
    weights that fail.  Raises what those steps and
    ``sp_product_formula`` raise; the routes are not compared here.
    """
    basis = milnor_basis(f, infer_weights(f) if weights is None else weights)
    ws = basis.weights
    return Analysis(f, basis, _closed_mu(ws), sp_from_basis(basis), sp_product_formula(ws))


# -- eigenvalue multisets ------------------------------------------------------


class EigenMultiset(ExactMap):
    """Finite multiset of unit-circle angles: residues in [0, 1) with
    positive integer multiplicities.  As an ``ExactMap`` (see ``poly``), ``+``
    adds multiplicities and ``*`` adds angles mod 1: the eigenvalues of a
    direct sum and of a tensor product.  Residue r is stored as the int
    r * den in [0, den)."""

    __slots__ = ()
    _value = staticmethod(exact_int)

    @staticmethod
    def _key(r):
        r = exact_rational(r)
        if not (0 <= r < 1):
            raise ValueError(f"residue {r} outside [0, 1)")
        return r.numerator, r.denominator

    @staticmethod
    def _finish(acc, den):
        for k, mult in acc.items():
            if mult <= 0:
                raise NegativeMultiplicityError(
                    f"residue {ratio(k, den)} has non-positive multiplicity {mult}"
                )
        return acc

    @staticmethod
    def _joiner(den):
        return lambda a, b: (a + b) % den

    def __repr__(self):
        inner = ", ".join(f"{r}: {m}" for r, m in self.items())
        return f"EigenMultiset({{{inner}}})"


def _genuine(s: FracPoly):
    """The stored terms of s, refusing a negative coefficient."""
    for k, c in s.scaled.items():
        if c < 0:
            raise NegativeMultiplicityError(f"coefficient {c} at exponent {ratio(k, s.den)}")
    return s.scaled.items()


def eigenvalues_gamma_c(s: FracPoly) -> EigenMultiset:
    """Monodromy angles on nearby-cycle cohomology: t^a -> (-a) mod 1.

    Requires a genuine spectrum (all coefficients positive)."""
    den = s.den
    return EigenMultiset.from_scaled((((-k) % den, c) for k, c in _genuine(s)), den)


def eigenvalues_geometric(e: EigenMultiset) -> EigenMultiset:
    """Angle negation mod 1; converts between the two monodromy conventions.
    An involution."""
    den = e.den
    return EigenMultiset.from_scaled((((-k) % den, c) for k, c in e.scaled.items()), den)


def spectral_residues(s: FracPoly) -> EigenMultiset:
    """The multiset {a mod 1} over the spectrum terms, multiplicities summed."""
    den = s.den
    return EigenMultiset.from_scaled(((k % den, c) for k, c in _genuine(s)), den)


# -- characteristic polynomial -------------------------------------------------


def _prime_factors(n: int) -> list:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def char_poly(e: EigenMultiset) -> Polynomial:
    """Characteristic polynomial over the integers of a finite-order operator
    with the given eigenvalue angles.

    The multiset must be Galois-stable: for each denominator v appearing, all
    residues u/v with gcd(u, v) = 1 must appear with one common multiplicity
    c_v.  A stored angle k over den reads the unit u/v, v = den / gcd(k, den),
    so it is enough that v's group holds phi(v) residues of one multiplicity;
    else the least unit by multiplicity (absent = 0) of the least bad v is
    named.  The result is the product over v of Phi_v^c_v in the variable T,
    one map d -> e_d = sum over multiples v of d of mu(v/d) * c_v (mu the
    Möbius function) for ``_binomial_product``; one factorization of v gives
    both phi(v) and the mu step.  The coefficients are Fractions, one per
    distinct integer value, shared by the terms that carry it.
    """
    groups: dict[int, dict[int, int]] = {}
    den = e.den
    for k, mult in e.scaled.items():
        g = math.gcd(k, den)
        groups.setdefault(den // g, {})[k // g] = mult
    exps: dict[int, int] = {}
    for v in sorted(groups):
        present = groups[v]
        primes = _prime_factors(v)
        phi = v // math.prod(primes) * math.prod(p - 1 for p in primes)
        if len(present) != phi or len(set(present.values())) > 1:
            units = [u for u in range(v) if math.gcd(u, v) == 1]
            offender = min(units, key=lambda u: (present.get(u, 0), u))
            raise NotGaloisStableError(Fraction(offender, v))
        c_v = next(iter(present.values()))
        # mu(v/d) is (-1)^k when v/d is a product of k distinct primes, else 0
        divisors = [(v, c_v)]
        for p in primes:
            divisors += [(d // p, -c) for d, c in divisors]
        for d, c in divisors:
            exps[d] = exps.get(d, 0) + c
    coeffs = _binomial_product(exps)
    if coeffs is None:
        raise ConsistencyError("the product of binomials leaves a remainder")
    values = {c: Fraction(c) for c in set(coeffs) if c}
    return Polynomial.from_scaled((((k,), values[c]) for k, c in enumerate(coeffs) if c), ("T",))
