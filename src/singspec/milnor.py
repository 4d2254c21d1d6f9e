"""Gröbner bases of Jacobian ideals and monomial bases of Milnor algebras.

The monomial order is grevlex throughout (declared on the basis object).  The
quotient by the Jacobian ideal is finite-dimensional exactly when every
variable has a pure power among the leading terms of the reduced basis; the
standard monomials below those powers then form the Milnor algebra basis, and
their count must agree with the closed-form product of (1/w_i - 1) over the
weights.  Disagreement is an internal error, never a user error.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import kernel
from .errors import (
    ConsistencyError,
    NonIsolatedSingularityError,
    NotWeightedHomogeneousError,
)
from .poly import (
    Polynomial,
    as_weights,
    is_weighted_homogeneous,
    jacobian_generators,
)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Gröbner basis: monic, no leading term divides another,
    every tail fully reduced.  Elements sorted by ascending leading term."""

    variables: tuple[str, ...]
    polynomials: tuple[Polynomial, ...]
    order: str = "grevlex"

    @property
    def lead_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(kernel.leading_exponent(p.terms) for p in self.polynomials)


@dataclass(frozen=True)
class MilnorBasis:
    """Standard monomials of the Jacobian ideal, sorted by
    (weighted degree, grevlex)."""

    variables: tuple[str, ...]
    weights: tuple[Fraction, ...]
    monomials: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.monomials)


def _monic(d: dict) -> tuple[dict, tuple]:
    le = kernel.leading_exponent(d)
    lc = d[le]
    if lc != 1:
        d = {e: c / lc for e, c in d.items()}
    return d, le


def buchberger(generators, variables=None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal the generators span.

    Deterministic: generators are pre-sorted, the pair with the grevlex-least
    lcm is processed first (normal selection), and both classical discards
    apply (coprime leading terms; chain criterion against pairs no longer
    pending).
    """
    gens = [g for g in generators if g]
    if variables is None:
        if not gens:
            raise ValueError("cannot infer variables from an empty generator list")
        variables = gens[0].variables
    variables = tuple(variables)
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators must share one variable tuple")

    polys: list[dict] = []
    leads: list[tuple] = []
    tails: list[dict] = []

    def add(d: dict):
        d, le = _monic(d)
        polys.append(d)
        leads.append(le)
        tails.append({e: c for e, c in d.items() if e != le})

    for g in sorted(gens, key=lambda p: sorted(p.terms.items())):
        add(dict(g.terms))

    pending = {(i, j) for j in range(len(polys)) for i in range(j)}

    def lcm_key(pair):
        i, j = pair
        return (kernel.grevlex_key(kernel.exp_lcm(leads[i], leads[j])), i, j)

    while pending:
        i, j = min(pending, key=lcm_key)
        pending.remove((i, j))
        if kernel.exp_coprime(leads[i], leads[j]):
            continue
        lcm = kernel.exp_lcm(leads[i], leads[j])
        chained = False
        for k in range(len(polys)):
            if k in (i, j) or not kernel.exp_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chained = True
                break
        if chained:
            continue
        s = kernel.s_polynomial(polys[i], leads[i], polys[j], leads[j])
        r = kernel.normal_form(s, leads, tails)
        if r:
            new = len(polys)
            add(r)
            pending.update((k, new) for k in range(new))

    # minimal basis: drop leads divisible by another kept lead
    order = sorted(range(len(polys)), key=lambda i: kernel.grevlex_key(leads[i]))
    kept: list[int] = []
    for i in order:
        if not any(kernel.exp_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)

    # reduced basis: every tail in normal form against the other elements
    out = []
    for i in kept:
        other_leads = [leads[k] for k in kept if k != i]
        other_tails = [tails[k] for k in kept if k != i]
        tail = kernel.normal_form(tails[i], other_leads, other_tails)
        full = dict(tail)
        full[leads[i]] = Fraction(1)
        out.append((leads[i], full))
    out.sort(key=lambda pair: kernel.grevlex_key(pair[0]))
    return GroebnerBasis(
        variables=variables,
        polynomials=tuple(Polynomial(variables, d) for _, d in out),
    )


def reduce_modulo(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Full normal form of p against a Gröbner basis."""
    if p.variables != gb.variables:
        raise ValueError("variable mismatch")
    leads = list(gb.lead_exponents)
    tails = [
        {e: c for e, c in poly.terms.items() if e != le}
        for poly, le in zip(gb.polynomials, leads)
    ]
    return Polynomial(gb.variables, kernel.normal_form(p.terms, leads, tails))


def _pure_power_bounds(leads, nvars: int):
    """Minimal pure-power exponent of each variable in the leading ideal,
    or the offending variable index when one has none."""
    bounds = []
    for i in range(nvars):
        best = None
        for le in leads:
            if le[i] and all(x == 0 for j, x in enumerate(le) if j != i):
                best = le[i] if best is None else min(best, le[i])
        if best is None:
            return None, i
        bounds.append(best)
    return bounds, -1


def is_isolated(f: Polynomial) -> bool:
    """True when the Jacobian ideal cuts out a finite-dimensional quotient."""
    gens = [g for g in jacobian_generators(f) if g]
    if not gens:
        return False
    gb = buchberger(gens, f.variables)
    leads = gb.lead_exponents
    if any(all(x == 0 for x in le) for le in leads):
        return True  # unit ideal: empty basis
    bounds, _ = _pure_power_bounds(leads, len(f.variables))
    return bounds is not None


def milnor_basis(f: Polynomial, weights) -> MilnorBasis:
    """Standard monomials of the Jacobian ideal of a weighted-homogeneous f.

    Raises NotWeightedHomogeneousError if some term misses degree 1, and
    NonIsolatedSingularityError if some variable has no pure power among the
    leading terms (the finiteness criterion for the quotient).
    """
    ws = as_weights(weights, len(f.variables))
    if not is_weighted_homogeneous(f, ws):
        raise NotWeightedHomogeneousError(
            "not weighted-homogeneous of degree 1 for the given weights"
        )
    gens = [g for g in jacobian_generators(f) if g]
    if not gens:
        raise NonIsolatedSingularityError("zero Jacobian ideal")
    gb = buchberger(gens, f.variables)
    leads = gb.lead_exponents
    if any(all(x == 0 for x in le) for le in leads):
        return MilnorBasis(f.variables, ws, ())
    bounds, bad = _pure_power_bounds(leads, len(f.variables))
    if bounds is None:
        raise NonIsolatedSingularityError(
            f"no pure power of {f.variables[bad]} in the leading ideal"
        )
    monomials = [
        m
        for m in itertools.product(*(range(b) for b in bounds))
        if not any(kernel.exp_divides(le, m) for le in leads)
    ]
    # weighted degrees scaled by the lcm of the weight denominators are
    # integers and order the monomials exactly as the rational degrees do
    scale = math.lcm(*(w.denominator for w in ws))
    c = [w.numerator * (scale // w.denominator) for w in ws]
    monomials.sort(
        key=lambda m: (sum(ci * ei for ci, ei in zip(c, m)), kernel.grevlex_key(m))
    )
    return MilnorBasis(f.variables, ws, tuple(monomials))


def milnor_number(f: Polynomial, weights) -> int:
    """Count of standard monomials, cross-checked against prod(1/w_i - 1)."""
    basis = milnor_basis(f, weights)
    closed = Fraction(1)
    for w in basis.weights:
        closed *= 1 / w - 1
    if closed.denominator != 1 or closed != len(basis):
        raise ConsistencyError(
            f"standard monomial count {len(basis)} != weight product {closed}"
        )
    return len(basis)
