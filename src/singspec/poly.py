"""Sparse multivariate polynomials over the rationals, plus weight machinery.

Exponent vectors are tuples of non-negative ints aligned with an ordered
variable tuple; coefficients are ``fractions.Fraction`` (exact, lowest terms,
positive denominator).  Weight vectors are tuples of Fractions in the open
interval (0, 1); a polynomial is weighted-homogeneous when every term has
weighted degree exactly 1.
"""

from fractions import Fraction

from . import kernel
from .errors import (
    InconsistentWeightsError,
    LengthMismatchError,
    UnderdeterminedWeightsError,
    WeightOutOfRangeError,
)


class Polynomial:
    """Immutable sparse polynomial.  ``terms`` maps exponent tuples to coefficients.

    Construction normalizes: coefficients are coerced to Fraction, repeated
    exponents accumulate, zero coefficients are dropped.  All arithmetic
    requires both operands to share the same variable tuple; ints and
    Fractions lift to constants.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=()):
        object.__setattr__(self, "variables", tuple(variables))
        n = len(self.variables)
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise LengthMismatchError(
                    f"exponent vector {e} has length {len(e)}, expected {n}"
                )
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent in {e}")
            c = Fraction(c)
            if e in acc:
                acc[e] += c
            else:
                acc[e] = c
        object.__setattr__(self, "terms", {e: c for e, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, value):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): Fraction(value)})

    @classmethod
    def monomial(cls, variables, exponents, coefficient=1):
        return cls(variables, {tuple(exponents): Fraction(coefficient)})

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError(
                    f"variable mismatch: {self.variables} vs {other.variables}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return Polynomial(self.variables, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                k = kernel.exp_add(ea, eb)
                v = out.get(k, 0) + ca * cb
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return Polynomial(self.variables, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.constant(self.variables, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus and degrees ----------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to variable i."""
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                out[tuple(d)] = c * e[i]
        return Polynomial(self.variables, out)

    def total_degree(self):
        """Largest total degree of a term, or -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    # -- rendering ---------------------------------------------------------

    def _term_body(self, e, c) -> str:
        mono = "*".join(
            v if k == 1 else f"{v}^{k}"
            for v, k in zip(self.variables, e)
            if k
        )
        if not mono:
            return str(abs(c))
        a = abs(c)
        return mono if a == 1 else f"{a}*{mono}"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, key=kernel.grevlex_key, reverse=True):
            c = self.terms[e]
            body = self._term_body(e, c)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Polynomial({str(self)!r}, vars={self.variables})"


# -- weights ----------------------------------------------------------------


def as_weights(values, nvars: int | None = None) -> tuple[Fraction, ...]:
    """Coerce to a tuple of Fractions, each required to lie in (0, 1)."""
    ws = tuple(Fraction(v) for v in values)
    for w in ws:
        if not (0 < w < 1):
            raise WeightOutOfRangeError(f"weight {w} outside the open interval (0, 1)")
    if nvars is not None and len(ws) != nvars:
        raise LengthMismatchError(f"{len(ws)} weights for {nvars} variables")
    return ws


def weighted_degree(exponents, weights) -> Fraction:
    """Sum of w_i * m_i over the coordinates."""
    if len(exponents) != len(weights):
        raise LengthMismatchError(
            f"exponent vector of length {len(exponents)} against {len(weights)} weights"
        )
    return sum((Fraction(w) * m for m, w in zip(exponents, weights)), Fraction(0))


def is_weighted_homogeneous(f: Polynomial, weights) -> bool:
    """True when every term of f has weighted degree exactly 1.

    The zero polynomial counts as weighted-homogeneous.
    """
    ws = as_weights(weights, len(f.variables))
    return all(weighted_degree(e, ws) == 1 for e in f.terms)


def infer_weights(f: Polynomial) -> tuple[Fraction, ...]:
    """Solve for the unique weight vector giving every term degree 1.

    Exact Gauss-Jordan elimination on the exponent matrix.  Raises
    InconsistentWeightsError when no solution exists,
    UnderdeterminedWeightsError when the solution is not unique, and
    WeightOutOfRangeError when the solved weights leave (0, 1).
    """
    n = len(f.variables)
    rows = [[Fraction(x) for x in e] + [Fraction(1)] for e in sorted(f.terms)]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    for row in rows[rank:]:
        if row[n]:
            raise InconsistentWeightsError(
                "no weight vector makes every term weighted degree 1"
            )
    if rank < n:
        raise UnderdeterminedWeightsError(
            "weights are not determined by the exponents; pass them explicitly"
        )
    solution = [Fraction(0)] * n
    for i in range(n):
        col = next(j for j in range(n) if rows[i][j])
        solution[col] = rows[i][n]
    return as_weights(solution, n)


def jacobian_generators(f: Polynomial) -> tuple[Polynomial, ...]:
    """All n partial derivatives, in variable order (zeros included)."""
    return tuple(f.partial(i) for i in range(len(f.variables)))
