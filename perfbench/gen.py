"""Seeded inputs for the benchmark workloads.

Every generator is a pure function of its seed.  The seed changes what a
request looks like (variable names, coefficients, term and factor order, the
order of requests in a pass, cover multiplicities and the order of
components and of cover entries in a model file) but not the shape catalogue
behind it, so runs with different seeds do the same amount of work and their
timings can be compared.

The expected answers come from closed forms that share no code with
singspec: weights solve A w = 1 for the exponent matrix A of an invertible
polynomial, mu = prod(1/w_i - 1), and the Euler number of a nearby-fiber class
is the sum of the cover multiplicities of the strata whose (1 - L) weight does
not vanish at L = 1.
"""

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

# -- invertible polynomials ------------------------------------------------------

# sp-large: one pass runs every rung once, from mu 120 to mu 2,880.  Fermat
# exponents are pairwise coprime, so the lcm m of the weight denominators is
# their product and the dense one-variable layer is as long as it gets for
# the given mu.  With thirteen rungs, the nearest-rank p50 and p75 of a run
# fall inside one rung whatever the number of passes.
LARGE_SHAPES = (
    ("fermat", (5, 6, 7)),
    ("fermat", (4, 7, 9)),
    ("loop", (4, 5, 7)),
    ("chain", (3, 5, 7, 4)),
    ("fermat", (5, 7, 9)),
    ("fermat", (7, 9, 11)),
    ("fermat", (7, 11, 13)),
    ("fermat", (3, 5, 7, 11)),
    ("fermat", (4, 5, 7, 9)),
    ("fermat", (11, 13, 15)),
    ("fermat", (5, 7, 11, 13)),
    ("loop", (3, 4, 5, 7)),
    ("chain", (4, 5, 7, 9)),
)

# sp-coupled: small chain and loop atoms over 3-5 variables, mu <= 300, whose
# Jacobian ideals are not monomial.
COUPLED_SHAPES = tuple(
    (kind, exps)
    for kind, exps in (
        ("chain", (2, 3, 4)),
        ("chain", (3, 3, 5)),
        ("chain", (4, 2, 5)),
        ("chain", (5, 4, 3)),
        ("chain", (2, 5, 7)),
        ("chain", (6, 3, 4)),
        ("chain", (2, 2, 2, 3)),
        ("chain", (3, 2, 3, 2)),
        ("chain", (2, 3, 2, 4)),
        ("chain", (3, 3, 3, 3)),
        ("chain", (2, 2, 2, 2, 3)),
        ("chain", (2, 3, 2, 2, 2)),
        ("loop", (2, 3, 4)),
        ("loop", (3, 3, 5)),
        ("loop", (4, 5, 6)),
        ("loop", (2, 5, 7)),
        ("loop", (6, 6, 3)),
        ("loop", (5, 6, 7)),
        ("loop", (4, 4, 4, 4)),
        ("loop", (2, 3, 2, 5)),
        ("loop", (3, 3, 3, 3)),
        ("loop", (2, 4, 3, 5)),
        ("loop", (4, 4, 2, 3)),
        ("loop", (2, 2, 3, 2, 3)),
        ("loop", (2, 2, 2, 2, 4)),
        ("loop", (3, 2, 3, 2, 2)),
    )
)

_NAME_POOL = tuple("abcdefghjkmnpqrstuvwxyz")


@dataclass(frozen=True)
class SpRequest:
    """One ``singspec sp`` request and the answers it must produce."""

    shape: str
    expr: str
    variables: tuple[str, ...]
    weights: tuple[Fraction, ...]
    mu: int

    def argv(self) -> list[str]:
        return ["sp", self.expr, "--vars", ",".join(self.variables), "--json"]


def exponent_matrix(kind: str, exps) -> list[list[int]]:
    """Rows are the exponent vectors of the terms of a Fermat, chain or loop atom."""
    if kind not in ("fermat", "chain", "loop"):
        raise ValueError(f"unknown atom kind {kind!r}")
    n = len(exps)
    rows = []
    for i, a in enumerate(exps):
        row = [0] * n
        row[i] = a
        if kind == "chain" and i + 1 < n:
            row[i + 1] = 1
        elif kind == "loop":
            row[(i + 1) % n] += 1
        rows.append(row)
    return rows


def solve_weights(rows) -> tuple[Fraction, ...]:
    """The unique w with rows . w = 1, by exact Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1)] for row in rows]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                factor = aug[i][col]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def milnor_closed(weights) -> int:
    mu = Fraction(1)
    for w in weights:
        mu *= 1 / w - 1
    if mu.denominator != 1:
        raise ValueError(f"weights {weights} give a non-integral Milnor number")
    return mu.numerator


def _monomial_text(names, row, coefficient, rng) -> str:
    factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, row) if k]
    rng.shuffle(factors)
    if coefficient != 1:
        factors.insert(rng.randrange(len(factors) + 1), str(coefficient))
    return "*".join(factors)


def sp_request(kind: str, exps, rng: random.Random) -> SpRequest:
    rows = exponent_matrix(kind, exps)
    weights = solve_weights(rows)
    names = tuple(rng.sample(_NAME_POOL, len(exps)))
    terms = [_monomial_text(names, row, rng.randint(1, 9), rng) for row in rows]
    rng.shuffle(terms)
    return SpRequest(
        shape=f"{kind}{tuple(exps)}".replace(" ", ""),
        expr=" + ".join(terms),
        variables=names,
        weights=weights,
        mu=milnor_closed(weights),
    )


def sp_requests(shapes, seed: int) -> list[SpRequest]:
    """Every shape once, decorated and ordered by the seed."""
    rng = random.Random(seed)
    out = [sp_request(kind, exps, rng) for kind, exps in shapes]
    rng.shuffle(out)
    return out


# -- resolution-graph-shaped degeneration models --------------------------------

# Multiplicities of the vertical chain, shared by every generated model.  They
# stay fixed, and so does the order of the strata: the order in which strata
# join the running total sets the cost of nearby_fiber_class.  The seed only
# draws the cover multiplicities and the order of the components and of the
# entries within each cover class.  Models of one size keep the request mix
# free of a cost step where its median falls.
MODEL_MULTIPLICITIES = (24, 36, 60, 72, 120, 4, 180, 90)
MODEL_COUNT = 4

_BIDEGREES = ((0, 0), (1, 0), (0, 1), (1, 1))


@dataclass(frozen=True)
class NearbyModel:
    """A generated model file and the Euler number of each variant."""

    name: str
    text: str
    euler: dict


def _cover(angles_of: int, rng: random.Random, bidegrees) -> list:
    return [
        [p, q, str(Fraction(j, angles_of)), rng.randint(1, 3)]
        for j in range(angles_of)
        for p, q in bidegrees
    ]


def nearby_model(mults, rng: random.Random, name: str) -> NearbyModel:
    """Chain E1 - E2 - ... - Ek of vertical components plus a horizontal strict
    transform S meeting the last one.  Each single stratum lists the angle
    eigenspaces j/m of its cover in four bidegrees; each pair stratum lists
    gcd-many points."""
    ids = [f"E{i + 1}" for i in range(len(mults))]
    components = [
        {"id": cid, "multiplicity": m, "kind": "vertical"} for cid, m in zip(ids, mults)
    ]
    components.append({"id": "S", "multiplicity": 1, "kind": "horizontal"})
    strata = [
        {"ids": [cid], "cover_class": _cover(m, rng, _BIDEGREES)}
        for cid, m in zip(ids, mults)
    ]
    for i in range(len(ids) - 1):
        g = math.gcd(mults[i], mults[i + 1])
        strata.append({"ids": [ids[i], ids[i + 1]], "cover_class": _cover(g, rng, ((0, 0),))})
    strata.append({"ids": [ids[-1], "S"], "cover_class": [[0, 0, "0", 1]]})
    for s in strata:
        rng.shuffle(s["cover_class"])
    rng.shuffle(components)
    return NearbyModel(
        name=name,
        text=json.dumps({"n": 2, "components": components, "strata": strata}, indent=2) + "\n",
        euler=model_euler(components, strata),
    )


def model_euler(components, strata) -> dict:
    """Euler number per variant.  A stratum with k vertical members carries
    (1 - L)^(k - 1) in the total variant and (1 - L)^(|I| - 1) in the open
    one, so only strata with one vertical member (total) or one member (open)
    survive L = 1."""
    vertical = {c["id"] for c in components if c["kind"] == "vertical"}
    total = opened = 0
    for s in strata:
        k = sum(1 for i in s["ids"] if i in vertical)
        mult = sum(entry[3] for entry in s["cover_class"])
        if k == 1:
            total += mult
        if k == len(s["ids"]) == 1:
            opened += mult
    return {"total": total, "local": total, "open": opened}


def nearby_models(seed: int) -> list[NearbyModel]:
    rng = random.Random(seed)
    return [nearby_model(MODEL_MULTIPLICITIES, rng, f"model{i}.json") for i in range(MODEL_COUNT)]


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering, or of a string's UTF-8 bytes."""
    data = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(data.encode()).hexdigest()
