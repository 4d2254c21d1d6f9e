"""Gröbner bases of Jacobian ideals and monomial bases of Milnor algebras.

The monomial order is grevlex throughout (``poly.grevlex_key``), so
``GroebnerBasis`` records no order.  The quotient by the Jacobian ideal is
finite-dimensional exactly when every variable has a pure power among the
leading terms of the reduced basis; the standard monomials below those
powers then form the Milnor algebra basis (walked with the leads filtered
coordinate by coordinate, ``_standard_monomials``), and their count must
agree with the closed-form product of (1/w_i - 1) over the weights.
Disagreement is an internal error, never a user error.  ``milnor_basis``
checks that closed form against ``MAX_MU`` before it computes a Gröbner
basis or enumerates a monomial.

A Gröbner run has two layers: the core ``_minimal_basis`` runs the pair loop
and returns the leads and monic tails of a minimal basis, and ``buchberger``
inter-reduces them into the reduced ``GroebnerBasis``.  Inter-reduction
rewrites only tails, so ``milnor_basis`` and ``is_isolated`` read the core's
leads (``_jacobian_leads``) and build no reduced basis.  ``sp`` runs the core
once per request (``spectrum.analyze``) and ``check`` once per corpus case;
``is_isolated`` and ``milnor_number`` run it again, as oracles of ``analyze``.

Packed monomials (Monagan-Pearce, J. Symbolic Comput. 46, 2011): the core,
``normal_form`` and ``s_polynomial`` key a monomial by one int; the public
functions take and return exponent tuples.  A variable has _V value bits and
a guard bit, W = _V + 1: E(e) = sum e_i 2^(iW) and the key is K(e) =
deg(e) 2^(nW) - E(e), so E(e) = -K(e) mod 2^(nW).  K is linear and orders
ints as ``grevlex_key`` orders tuples, so a lead is a ``max``.  x^a divides
x^b exactly when (K(a) - K(b)) & G == 0, G the guard bits (a field that
borrows sets its guard bit); ``_Packing.lcm`` takes field maxima by that
compare; coprime leads have disjoint support masks.  Grevlex is graded and
reduction brings in only smaller terms, so no degree in a run exceeds its
largest input term or the lcm of a pair it reduces: ``_Packing.check``
refuses those past 2^_V - 1 (ResourceLimitError) before a field overflows.
``sp`` and ``check`` never come near: a term of f has degree at most m, the
lcm of the weight denominators (m w_i is a positive integer), which ``sp``
refuses past ``spectrum.MAX_DENSE`` anyway, and no pair lcm of the check
corpus or the benchmark inputs passes degree 66.
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
from .poly import Polynomial, as_weights, grevlex_key, is_weighted_homogeneous, jacobian_generators

# budget on the closed-form Milnor number, i.e. on the number of standard
# monomials milnor_basis may enumerate; x^30+y^31+z^37 has mu 31,320
MAX_MU = 100_000

# a packed exponent has one field per variable: _V value bits and a guard bit
_V = 31
_W = _V + 1
_FIELD = (1 << _V) - 1


class _Packing:
    """Keys of monomials in n variables: ``shift`` = nW, ``ones`` = sum
    2^(iW), ``guard`` = G, ``top`` the largest key below degree 2^_V."""

    __slots__ = ("shift", "mask", "ones", "guard", "top")

    def __init__(self, n: int):
        self.shift = n * _W
        self.mask = (1 << self.shift) - 1
        self.ones = self.mask // ((1 << _W) - 1)
        self.guard = self.ones << _V
        self.top = _FIELD << self.shift

    def check(self, k: int):
        if k > self.top:
            raise ResourceLimitError(f"a Gröbner run goes past degree {_FIELD}: too large to pack")

    def pack(self, terms) -> dict:
        """``terms`` keyed by K, refused by ``check`` at its largest key."""
        s, at = self.shift, range(0, self.shift, _W)
        out = {(sum(e) << s) - sum(map(operator.lshift, e, at)): c for e, c in terms.items()}
        self.check(max(out, default=0))
        return out

    def exponent(self, k: int) -> tuple[int, ...]:
        e = -k & self.mask
        return tuple(e >> s & _FIELD for s in range(0, self.shift, _W))

    def support(self, e: int) -> int:
        return (e + self.guard - self.ones) & self.guard  # the guard bits of nonzero fields

    def lcm(self, a: int, b: int) -> int:
        """K of the lcm of the exponents whose E values are a and b."""
        g = ((a | self.guard) - b) & self.guard  # the guard bits of the fields with a_i >= b_i
        e = b ^ ((a ^ b) & (g - (g >> _V)))
        degree = (e * self.ones >> self.shift - _W) & ((1 << _W) - 1)
        return (degree << self.shift) - e


def normal_form(terms, leads, tails, guard):
    """Full normal form of a dict keyed by K modulo the monic basis of the
    elements x^leads[i] + tails[i], ``guard`` = G.  The largest term is
    reduced first, by the first element whose lead divides it, so the result
    comes in strictly descending order."""
    work = dict(terms)
    out = {}
    while work:
        k = max(work)
        c = work.pop(k)
        for le, tail in zip(leads, tails):
            if not (le - k) & guard:
                d = k - le
                for te, tc in tail.items():
                    te += d
                    v = work.get(te, 0) - c * tc
                    if v:
                        work[te] = v
                    elif te in work:
                        del work[te]
                break
        else:
            out[k] = c
    return out


def s_polynomial(f, lf, g, lg, lcm):
    """S-polynomial of the monic x^lf + f and x^lg + g, given their tails f, g
    and the key of lcm(x^lf, x^lg); full monic dicts give the same result."""
    df, dg = lcm - lf, lcm - lg
    out = {e + df: c for e, c in f.items()}
    for e, c in g.items():
        e += dg
        v = out.get(e, 0) - c
        if v:
            out[e] = v
        elif e in out:
            del out[e]
    return out


class GroebnerBasis(Record):
    """Reduced Gröbner basis: monic, no leading term divides another,
    every tail fully reduced.  Elements sorted by ascending leading term."""

    __slots__ = ("variables", "polynomials")

    @property
    def lead_exponents(self) -> tuple[tuple[int, ...], ...]:
        return tuple(max(p.terms, key=grevlex_key) for p in self.polynomials)


class MilnorBasis(Record):
    """Standard monomials of the Jacobian ideal, in lexicographic order of
    their exponent tuples (the order ``_standard_monomials`` walks them)."""

    __slots__ = ("variables", "weights", "monomials")

    def __len__(self):
        return len(self.monomials)


def _minimal_basis(gens, n: int) -> tuple[_Packing, list[int], list[dict]]:
    """The packing of n variables, and the packed leads (those of the reduced
    basis) and monic tails of a minimal Gröbner basis of the ideal the
    nonzero ``gens`` span, leads ascending.

    Deterministic: generators are pre-sorted, the pair with the least lcm is
    processed first (normal selection), and both classical discards apply
    (coprime leads; chain criterion against pairs no longer pending).  Pairs
    wait in a heap keyed ``(K(lcm), i, j)``, a total order, so they pop in
    the order of ``min(pending, key=...)``; ``pending`` has both (i, j), (j, i).
    """
    pk = _Packing(n)
    guard = pk.guard
    leads, exps, supports, tails = [], [], [], []  # per element: K, E and support of its lead
    pending, queue = set(), []

    def add(d: dict):
        le = max(d)
        lc = d.pop(le)
        new = len(leads)
        e = -le & pk.mask
        for i in range(new):
            heapq.heappush(queue, (pk.lcm(exps[i], e), i, new))
            pending.update(((i, new), (new, i)))
        leads.append(le)
        exps.append(e)
        supports.append(pk.support(e))
        tails.append(d if lc == 1 else {k: c / lc for k, c in d.items()})

    for g in sorted(gens, key=lambda p: sorted(p.terms.items())):
        add(pk.pack(g.terms))

    while queue:
        lcm, i, j = heapq.heappop(queue)
        pending -= {(i, j), (j, i)}
        if not supports[i] & supports[j]:
            continue
        if any(
            k != i and k != j and (i, k) not in pending and (j, k) not in pending
            for k, le in enumerate(leads) if not (le - lcm) & guard
        ):
            continue  # chain criterion
        pk.check(lcm)
        s = s_polynomial(tails[i], leads[i], tails[j], leads[j], lcm)
        r = normal_form(s, leads, tails, guard)
        if r:
            add(r)

    # minimal basis: drop leads divisible by another kept lead
    kept: list[int] = []
    for i in sorted(range(len(leads)), key=leads.__getitem__):
        if all((leads[k] - leads[i]) & guard for k in kept):
            kept.append(i)
    return pk, [leads[i] for i in kept], [tails[i] for i in kept]


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

    pk, leads, tails = _minimal_basis(gens, len(variables))
    out = []
    for le, tail in zip(leads, tails):
        # x^a | x^b implies x^b >= x^a, so an element never reduces its own tail
        full = {**normal_form(tail, leads, tails, pk.guard), le: Fraction(1)}
        out.append(Polynomial.from_scaled(zip(map(pk.exponent, full), full.values()), variables))
    # the leads ascend, so out is sorted
    return GroebnerBasis(variables, tuple(out))


def reduce_modulo(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Full normal form of p against a Gröbner basis."""
    if p.variables != gb.variables:
        raise ValueError("variable mismatch")
    pk = _Packing(len(p.variables))
    tails = [pk.pack(q.terms) for q in gb.polynomials]
    leads = [max(t) for t in tails]
    for t, le in zip(tails, leads):
        del t[le]
    rest = normal_form(pk.pack(p.terms), leads, tails, pk.guard)
    return Polynomial.from_scaled(zip(map(pk.exponent, rest), rest.values()), p.variables)


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
    pk, leads, _ = _minimal_basis([g for g in jacobian_generators(f) if g], len(f.variables))
    return tuple(map(pk.exponent, leads))


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
