"""Gröbner bases of Jacobian ideals and monomial bases of Milnor algebras.

The monomial order is grevlex throughout (``poly.grevlex_key``), so
``GroebnerBasis`` records no order.  Exponent arithmetic on tuples,
``normal_form`` and ``s_polynomial`` (on dicts from exponent tuples to nonzero
exact coefficients) are the reduction loop of every Gröbner run.  The quotient
by the Jacobian ideal is finite-dimensional exactly when every variable has a
pure power among the leading terms of the reduced basis; the standard
monomials below those powers then form the Milnor algebra basis (walked with
the leads filtered coordinate by coordinate, ``_standard_monomials``), and
their count must agree with the closed-form product of (1/w_i - 1) over the
weights.  Disagreement is an internal error, never a user error.
``milnor_basis`` checks that closed form against ``MAX_MU`` before it computes
a Gröbner basis or enumerates a monomial.

A Gröbner run has two layers: the core ``_minimal_basis`` runs the pair loop
and returns the leads and monic tails of a minimal basis, and ``buchberger``
inter-reduces them into the reduced ``GroebnerBasis``.  Inter-reduction
rewrites only tails, so ``milnor_basis`` and ``is_isolated`` read the core's
leads (``_jacobian_leads``) and build no reduced basis.  ``singspec sp`` runs
the core once per request (``spectrum.analyze``) and ``singspec check`` once
per corpus case, building its corpus once per run; ``is_isolated`` and
``milnor_number`` each run it again, as public entry points and as oracles
for ``analyze``.
"""

import heapq
import math
import operator
from fractions import Fraction

from .errors import (
    ConsistencyError,
    NonIsolatedSingularityError,
    NotWeightedHomogeneousError,
    ResourceLimitError,
)
from .exact import Record, shown
from .poly import (
    Polynomial,
    as_weights,
    exp_add,
    grevlex_key,
    is_weighted_homogeneous,
    jacobian_generators,
)

# budget on the closed-form Milnor number, i.e. on the number of standard
# monomials milnor_basis may enumerate; x^30+y^31+z^37 has mu 31,320
MAX_MU = 100_000


def exp_sub(a, b):
    return tuple(map(operator.sub, a, b))


def exp_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def exp_divides(a, b):
    """True if the monomial with exponent a divides the one with exponent b."""
    return all(map(operator.le, a, b))


def exp_coprime(a, b):
    for x, y in zip(a, b):
        if x and y:
            return False
    return True


def leading_exponent(terms):
    """Grevlex-largest exponent of a nonzero polynomial dict."""
    return max(terms, key=grevlex_key)


def normal_form(terms, lead_exps, tails):
    """Full normal form of a polynomial dict modulo a monic basis.

    Basis element i is x^lead_exps[i] + tails[i] (tails are polynomial dicts
    whose monomials are grevlex-smaller than the lead).  Deterministic: the
    grevlex-largest remaining term is reduced first, by the first basis
    element in list order whose lead divides it.  Reduction only ever creates
    monomials strictly smaller than the one removed, so emitted terms are
    final and come in strictly descending grevlex order; callers rely on
    that: the first key of a nonzero result is its leading exponent.
    """
    work = dict(terms)
    out = {}
    nbasis = len(lead_exps)
    while work:
        e = leading_exponent(work)
        c = work.pop(e)
        hit = -1
        for i in range(nbasis):
            if exp_divides(lead_exps[i], e):
                hit = i
                break
        if hit < 0:
            out[e] = c
            continue
        d = exp_sub(e, lead_exps[hit])
        for te, tc in tails[hit].items():
            k = exp_add(d, te)
            v = work.get(k, 0) - c * tc
            if v:
                work[k] = v
            elif k in work:
                del work[k]
    return out


def s_polynomial(f, lf, g, lg):
    """S-polynomial of the monic x^lf + f and x^lg + g, given their tails f, g;
    full monic dicts give the same result (their lcm terms cancel)."""
    lcm = exp_lcm(lf, lg)
    df = exp_sub(lcm, lf)
    dg = exp_sub(lcm, lg)
    out = {}
    for e, c in f.items():
        out[exp_add(e, df)] = c
    for e, c in g.items():
        k = exp_add(e, dg)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        elif k in out:
            del out[k]
    return out


class GroebnerBasis(Record):
    """Reduced Gröbner basis: monic, no leading term divides another,
    every tail fully reduced.  Elements sorted by ascending leading term."""

    __slots__ = ("variables", "polynomials")

    @property
    def lead_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(leading_exponent(p.terms) for p in self.polynomials)


class MilnorBasis(Record):
    """Standard monomials of the Jacobian ideal, in lexicographic order of
    their exponent tuples (the order ``_standard_monomials`` walks them)."""

    __slots__ = ("variables", "weights", "monomials")

    def __len__(self):
        return len(self.monomials)


def _minimal_basis(gens) -> tuple[list[tuple], list[dict]]:
    """Leads and monic tails of a minimal Gröbner basis of the ideal the
    nonzero polynomials ``gens`` span, in ascending grevlex order of the leads.

    The leads are those of the reduced basis (inter-reduction rewrites only
    tails), so callers that need the leading ideal alone stop here.  A
    remainder's lead is its first key (``normal_form``'s order).

    Deterministic: generators are pre-sorted, the pair with the grevlex-least
    lcm is processed first (normal selection), and both classical discards
    apply (coprime leading terms; chain criterion against pairs no longer
    pending).

    Pairs wait in a binary heap keyed ``(grevlex_key(lcm), i, j)``; each pair
    is pushed once, when its younger element joins the basis, so a selection
    costs O(log P) over P pairs instead of a scan of every pending pair.  The
    key is a total order (no two pairs share i, j), so the heap pops pairs in
    exactly the order of ``min(pending, key=...)``.  ``pending`` mirrors the
    heap for the chain criterion; a pair leaves it when it is popped.
    """
    leads: list[tuple] = []
    tails: list[dict] = []
    pending: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def add(d: dict, le: tuple):
        lc = d.pop(le)
        new = len(leads)
        leads.append(le)
        tails.append(d if lc == 1 else {e: c / lc for e, c in d.items()})
        for i in range(new):
            lcm = exp_lcm(leads[i], le)
            heapq.heappush(queue, (grevlex_key(lcm), i, new, lcm))
            pending.add((i, new))

    for g in sorted(gens, key=lambda p: sorted(p.terms.items())):
        add(dict(g.terms), leading_exponent(g.terms))

    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if exp_coprime(leads[i], leads[j]):
            continue
        chained = False
        for k in range(len(leads)):
            if k in (i, j) or not exp_divides(leads[k], lcm):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                chained = True
                break
        if chained:
            continue
        s = s_polynomial(tails[i], leads[i], tails[j], leads[j])
        r = normal_form(s, leads, tails)
        if r:
            add(r, next(iter(r)))

    # minimal basis: drop leads divisible by another kept lead
    kept_leads: list[tuple] = []
    kept_tails: list[dict] = []
    for i in sorted(range(len(leads)), key=lambda i: grevlex_key(leads[i])):
        if not any(exp_divides(k, leads[i]) for k in kept_leads):
            kept_leads.append(leads[i])
            kept_tails.append(tails[i])
    return kept_leads, kept_tails


def buchberger(generators, variables=None) -> GroebnerBasis:
    """Reduced Gröbner basis of the ideal the generators span: the minimal
    basis of ``_minimal_basis`` with every tail in normal form against it."""
    gens = [g for g in generators if g]
    if variables is None:
        if not gens:
            raise ValueError("cannot infer variables from an empty generator list")
        variables = gens[0].variables
    variables = tuple(variables)
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators must share one variable tuple")

    leads, tails = _minimal_basis(gens)
    out = []
    for le, tail in zip(leads, tails):
        # x^a | x^b implies x^b >= x^a, so an element never reduces its own tail
        tail = normal_form(tail, leads, tails)
        out.append(Polynomial.from_scaled([*tail.items(), (le, Fraction(1))], variables))
    # the leads ascend in grevlex order, so out is sorted
    return GroebnerBasis(variables, tuple(out))


def reduce_modulo(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Full normal form of p against a Gröbner basis."""
    if p.variables != gb.variables:
        raise ValueError("variable mismatch")
    leads = list(gb.lead_exponents)
    tails = [
        {e: c for e, c in poly.terms.items() if e != le}
        for poly, le in zip(gb.polynomials, leads)
    ]
    return Polynomial.from_scaled(normal_form(p.terms, leads, tails).items(), gb.variables)


def _missing_pure_power(leads, nvars: int) -> int:
    """Index of the first variable with no pure power among the leads (1 counts for all), or -1."""
    for i in range(nvars):
        if not any(sum(le) == le[i] for le in leads):
            return i
    return -1


def _standard_monomials(leads, nvars: int) -> list[tuple[int, ...]]:
    """Exponents no lead divides, in lexicographic order.

    The leads must include a pure power of every variable and must not
    include 1.  The walk takes one run of the last coordinate at a time.
    Standard monomials form an order ideal, so a run ends at the first
    exponent some lead divides, and every larger one in the run is divisible
    too; that end is the least last coordinate among the leads whose other
    coordinates divide the run's prefix.  An empty run ends the run of the
    prefix coordinate stepped last in the same way.  So the walk visits each
    standard prefix once, plus one empty prefix per ended run.

    ``live[j]`` keeps the leads whose first j coordinates divide the prefix,
    and a step of coordinate k filters only ``live[k + 1:]`` again.  That
    changes which leads are compared, not which prefixes are visited, so the
    order and the output are those of a scan of every lead.  The pure power
    of the last variable passes every filter: ``live[last]`` is never empty.
    """
    last = nvars - 1
    prefix = [0] * last
    live = [leads] * nvars
    out = []
    k = 0  # the prefix coordinate stepped last: live[k + 1:] are stale
    while True:
        for j in range(k, last):
            live[j + 1] = [h for h in live[j] if h[j] <= prefix[j]]
        run = min([h[last] for h in live[last]])
        if run:
            head = tuple(prefix)
            out.extend(head + (t,) for t in range(run))
            k = last - 1
        else:
            prefix[k] = 0  # k >= 0: the zero prefix has a nonempty run
            k -= 1
        if k < 0:
            return out
        prefix[k] += 1


def _jacobian_leads(f: Polynomial) -> tuple[tuple[int, ...], ...]:
    """Leading exponents of the reduced Gröbner basis of the Jacobian ideal
    (none if it is zero), from the minimal basis alone."""
    return tuple(_minimal_basis([g for g in jacobian_generators(f) if g])[0])


def is_isolated(f: Polynomial) -> bool:
    """True when the Jacobian ideal has a finite quotient (zero for the unit ideal)."""
    leads = _jacobian_leads(f)
    return bool(leads) and _missing_pure_power(leads, len(f.variables)) < 0


def _closed_mu(ws) -> Fraction:
    """prod(1/w_i - 1): the Milnor number when the weights are those of an
    isolated weighted-homogeneous singularity (Milnor-Orlik, Topology 9,
    1970).

    With w_i = n_i/d_i each factor is (d_i - n_i)/n_i, so the product is one
    Fraction of two integer products (no lcm of the denominators)."""
    return Fraction(
        math.prod(w.denominator - w.numerator for w in ws),
        math.prod(w.numerator for w in ws),
    )


def milnor_basis(f: Polynomial, weights) -> MilnorBasis:
    """Standard monomials of the Jacobian ideal of a weighted-homogeneous f.

    Raises NotWeightedHomogeneousError if some term misses degree 1,
    ResourceLimitError if the closed-form Milnor number exceeds MAX_MU, and
    NonIsolatedSingularityError if some variable has no pure power among the
    leading terms (the finiteness criterion for the quotient).
    """
    ws = as_weights(weights, len(f.variables))
    if not is_weighted_homogeneous(f, ws):
        raise NotWeightedHomogeneousError(
            "not weighted-homogeneous of degree 1 for the given weights"
        )
    mu = _closed_mu(ws)
    if mu > MAX_MU:
        raise ResourceLimitError(
            f"Milnor number {shown(mu)} from the weights exceeds the limit of {MAX_MU}"
        )
    leads = _jacobian_leads(f)
    if not leads:
        raise NonIsolatedSingularityError("zero Jacobian ideal")
    # never the unit ideal: with weights in (0, 1) each partial derivative is
    # weighted-homogeneous of degree 1 - w_i > 0, so the Jacobian ideal lies
    # in the maximal ideal and no lead is the constant monomial
    bad = _missing_pure_power(leads, len(f.variables))
    if bad >= 0:
        raise NonIsolatedSingularityError(
            f"no pure power of {f.variables[bad]} in the leading ideal"
        )
    return MilnorBasis(f.variables, ws, tuple(_standard_monomials(leads, len(f.variables))))


def milnor_number(f: Polynomial, weights) -> int:
    """Count of standard monomials, cross-checked against prod(1/w_i - 1)."""
    basis = milnor_basis(f, weights)
    closed = _closed_mu(basis.weights)
    if closed.denominator != 1 or closed != len(basis):
        raise ConsistencyError(
            f"standard monomial count {len(basis)} != weight product {closed}"
        )
    return len(basis)
