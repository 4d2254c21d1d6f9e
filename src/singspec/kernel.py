"""Reduction kernel: exponent arithmetic, normal forms and S-polynomials.

Exponent vectors are tuples of non-negative ints; polynomials are dicts
mapping exponent tuples to nonzero exact coefficients.  The functions here are
the inner loop of every Gröbner-basis run.

Monomial order: graded reverse lexicographic with respect to the tuple order,
x_0 > x_1 > ... > x_{n-1}.
"""

import sys


def active():
    """This module.  Kept only because ``perfbench/spans.py`` finds the kernel
    functions through it; remove together with that call."""
    return sys.modules[__name__]


def backend_name() -> str:
    """Always ``"python"``.  Kept only because ``perfbench/child.py`` reports it
    in its setup probe; remove together with that call."""
    return "python"


def grevlex_key(e):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(e), tuple(-v for v in reversed(e)))


def grevlex_greater(a, b):
    """True if a > b in grevlex."""
    da, db = sum(a), sum(b)
    if da != db:
        return da > db
    # equal degree: rightmost nonzero entry of a - b must be negative
    for i in range(len(a) - 1, -1, -1):
        d = a[i] - b[i]
        if d:
            return d < 0
    return False


def exp_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def exp_lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def exp_divides(a, b):
    """True if the monomial with exponent a divides the one with exponent b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def exp_coprime(a, b):
    for x, y in zip(a, b):
        if x and y:
            return False
    return True


def leading_exponent(terms):
    """Grevlex-largest exponent of a nonzero polynomial dict."""
    it = iter(terms)
    best = next(it)
    for e in it:
        if grevlex_greater(e, best):
            best = e
    return best


def normal_form(terms, lead_exps, tails):
    """Full normal form of a polynomial dict modulo a monic basis.

    Basis element i is x^lead_exps[i] + tails[i] (tails are polynomial dicts
    whose monomials are grevlex-smaller than the lead).  Deterministic: the
    grevlex-largest remaining term is reduced first, by the first basis
    element in list order whose lead divides it.  Reduction only ever creates
    monomials strictly smaller than the one removed, so emitted terms are
    final.
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
    """S-polynomial of two monic polynomial dicts with leading exponents lf, lg."""
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
