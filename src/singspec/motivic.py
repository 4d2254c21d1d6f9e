"""Virtual equivariant Hodge classes and nearby-fiber evaluation on SNC models.

An ``EquivClass`` is a finitely supported integer map on triples
(p, q, angle): Hodge bidegree plus the angle in [0, 1) of a finite-order
semisimple action.  Multiplication is convolution (bidegrees add, angles add
mod 1); the class L of the Tate twist has bidegree (1, 1) and angle 0.

Cohomological signs (-1)^j are the *caller's* responsibility: stratum cover
classes are stored with them already folded into the multiplicities, and the
evaluator never re-signs.  Covers of strata are supplied already decomposed
into angle eigenspaces; the engine does not infer gradings from connectivity.

A degeneration model lists components of the special fiber (vertical) and of
the horizontal boundary, with multiplicities, plus the strata (nonempty
intersections) that actually occur, each carrying the class of its canonical
cyclic cover.  Two evaluation variants:

* total-space: strata meeting at least one vertical component, weighted by
  (1 - L)^(k - 1) with k the number of vertical members;
* open-complement: strata inside the vertical part only, weighted by
  (1 - L)^(|I| - 1).

"local" is accepted as an alias of "total": the Milnor-fiber use is the same
sum, over a stratum list the caller has already restricted to the fiber over
the point.
"""

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    HorizontalComponentError,
    MissingStratumWarning,
    ModelFormatError,
)
from .fracpoly import FracPoly

VERTICAL = "vertical"
HORIZONTAL = "horizontal"


class EquivClass:
    """Virtual bigraded class with a finite-order action, as integer
    multiplicities on (p, q, angle) triples."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        acc: dict = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for key, mult in items:
            p, q, f = key
            key = (int(p), int(q), Fraction(f) % 1)
            mult = int(mult)
            if key in acc:
                acc[key] += mult
            else:
                acc[key] = mult
        object.__setattr__(self, "entries", {k: m for k, m in acc.items() if m})

    def __setattr__(self, name, value):
        raise AttributeError("EquivClass is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls):
        """Class of a point with trivial action."""
        return cls({(0, 0, Fraction(0)): 1})

    @classmethod
    def lefschetz(cls):
        """The Tate class L: bidegree (1, 1), trivial action."""
        return cls({(1, 1, Fraction(0)): 1})

    def __add__(self, other):
        if not isinstance(other, EquivClass):
            return NotImplemented
        out = dict(self.entries)
        for k, m in other.entries.items():
            v = out.get(k, 0) + m
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return EquivClass(out)

    def __neg__(self):
        return EquivClass({k: -m for k, m in self.entries.items()})

    def __sub__(self, other):
        if not isinstance(other, EquivClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return EquivClass({k: m * other for k, m in self.entries.items()})
        if not isinstance(other, EquivClass):
            return NotImplemented
        out: dict = {}
        for (p1, q1, f1), m1 in self.entries.items():
            for (p2, q2, f2), m2 in other.entries.items():
                k = (p1 + p2, q1 + q2, (f1 + f2) % 1)
                v = out.get(k, 0) + m1 * m2
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return EquivClass(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("class powers must be non-negative integers")
        out = EquivClass.unit()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, EquivClass):
            return NotImplemented
        return self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)

    def items(self):
        """Entries sorted by (p, q, angle)."""
        return sorted(self.entries.items())

    def __repr__(self):
        inner = ", ".join(f"({p},{q},{f}): {m}" for (p, q, f), m in self.items())
        return f"EquivClass({{{inner}}})"


@dataclass(frozen=True)
class SncComponent:
    id: str
    multiplicity: int
    kind: str  # VERTICAL or HORIZONTAL

    def __post_init__(self):
        if not self.id or not isinstance(self.id, str):
            raise ModelFormatError("component id must be a nonempty string")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise ModelFormatError(
                f"component {self.id!r} multiplicity must be a positive integer"
            )
        if self.kind not in (VERTICAL, HORIZONTAL):
            raise ModelFormatError(
                f"component {self.id!r} kind must be '{VERTICAL}' or '{HORIZONTAL}'"
            )


@dataclass(frozen=True)
class Stratum:
    ids: tuple[str, ...]
    cover_class: EquivClass

    def __post_init__(self):
        ids = tuple(sorted(self.ids))
        if not ids or len(set(ids)) != len(ids):
            raise ModelFormatError(f"stratum ids must be distinct and nonempty: {self.ids}")
        object.__setattr__(self, "ids", ids)


@dataclass(frozen=True)
class SncModel:
    """Degeneration model: components, occurring strata, ambient fiber dimension n.

    Canonicalized on construction: components sorted by id, strata by id-set.
    """

    n: int
    components: tuple[SncComponent, ...]
    strata: tuple[Stratum, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ModelFormatError("n must be a non-negative integer")
        comps = tuple(sorted(self.components, key=lambda c: c.id))
        ids = [c.id for c in comps]
        if len(set(ids)) != len(ids):
            raise ModelFormatError("duplicate component ids")
        if not any(c.kind == VERTICAL for c in comps):
            raise ModelFormatError("model needs at least one vertical component")
        strata = tuple(sorted(self.strata, key=lambda s: s.ids))
        known = set(ids)
        seen = set()
        for s in strata:
            if s.ids in seen:
                raise ModelFormatError(f"duplicate stratum {s.ids}")
            seen.add(s.ids)
            for i in s.ids:
                if i not in known:
                    raise ModelFormatError(f"stratum references unknown component {i!r}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "strata", strata)

    def component(self, cid: str) -> SncComponent:
        for c in self.components:
            if c.id == cid:
                return c
        raise KeyError(cid)

    def vertical_ids(self) -> frozenset[str]:
        return frozenset(c.id for c in self.components if c.kind == VERTICAL)


# -- evaluation ---------------------------------------------------------------


def nearby_fiber_class(model: SncModel, variant: str = "total") -> EquivClass:
    """Sum of stratum cover classes weighted by powers of (1 - L).

    variant "total" (alias "local"): strata meeting the vertical part, weight
    exponent = number of vertical members - 1.  variant "open": strata
    entirely inside the vertical part, weight exponent = |I| - 1.
    """
    if variant == "local":
        variant = "total"
    if variant not in ("total", "open"):
        raise ValueError(f"unknown variant {variant!r}")
    vertical = model.vertical_ids()
    in_some_stratum = {i for s in model.strata for i in s.ids}
    for c in model.components:
        if c.id not in in_some_stratum:
            warnings.warn(
                f"component {c.id!r} appears in no stratum",
                MissingStratumWarning,
                stacklevel=2,
            )
    one_minus_l = EquivClass.unit() - EquivClass.lefschetz()
    total = EquivClass.zero()
    for s in model.strata:
        k = sum(1 for i in s.ids if i in vertical)
        if variant == "total":
            if k == 0:
                continue
            weight = one_minus_l ** (k - 1)
        else:
            if k < len(s.ids):
                continue
            weight = one_minus_l ** (len(s.ids) - 1)
        total = total + s.cover_class * weight
    return total


def euler_specialization(c: EquivClass) -> int:
    """Sum of all virtual multiplicities (the L -> 1, action-forgotten limit)."""
    return sum(c.entries.values())


def covering_degree(model: SncModel, ids) -> int:
    """Degree of the canonical cyclic cover over the stratum of the given
    vertical components: gcd of their multiplicities."""
    ids = tuple(ids)
    if not ids:
        raise ValueError("empty component selection")
    mults = []
    for i in ids:
        c = model.component(i)
        if c.kind != VERTICAL:
            raise HorizontalComponentError(f"component {i!r} is horizontal")
        mults.append(c.multiplicity)
    return math.gcd(*mults)


def component_count_cstar(model: SncModel, ids, adjacent: str) -> int:
    """Number of connected components of the cover over a C*-fiber stratum:
    the gcd extends over the adjacent vertical component as well."""
    ids = tuple(ids) + (adjacent,)
    return covering_degree(model, ids)


# -- spectrum functionals -------------------------------------------------------


def sp_prime_of_class(c: EquivClass) -> FracPoly:
    """Spectrum functional: entry (p, q, angle) with multiplicity m contributes
    m * t^(p + angle).  The q grading is ignored."""
    return FracPoly(((p + f, m) for (p, q, f), m in c.entries.items()))


def sp_of_class(c: EquivClass, n: int) -> FracPoly:
    """Twisted spectrum functional, computed independently of
    ``sp_prime_of_class``: the exponent lands in the interval (n-1-p, n-p]
    and is congruent to minus the angle mod 1."""
    out: dict = {}
    for (p, q, f), m in c.entries.items():
        frac = (-f) % 1
        a = (n - 1 - p) + (1 if frac == 0 else frac)
        out[a] = out.get(a, 0) + m
    return FracPoly(out)


def reduce_class(c: EquivClass) -> EquivClass:
    """Subtract the unit class (degree-0 cohomology of a connected fiber)."""
    return c - EquivClass.unit()


def sp_prime_reduced(c: EquivClass, n: int) -> FracPoly:
    """Spectrum of the reduced class with the alternating-sign normalization
    for ambient dimension n: (-1)^(n-1) times the raw functional."""
    s = sp_prime_of_class(reduce_class(c))
    return s if (n - 1) % 2 == 0 else -s


# -- model files ----------------------------------------------------------------


def _require_keys(obj: dict, keys: tuple[str, ...], where: str):
    for k in obj:
        if k not in keys:
            raise ModelFormatError(f"unknown key {k!r}", f"{where}/{k}")
    for k in keys:
        if k not in obj:
            raise ModelFormatError(f"missing key {k!r}", where)


def _parse_angle(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ModelFormatError("angle must be a string rational", where)
    try:
        f = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"bad angle {raw!r}: {exc}", where) from None
    if not (0 <= f < 1):
        raise ModelFormatError(f"angle {raw!r} outside [0, 1)", where)
    return f


def _parse_cover_class(raw, where: str) -> EquivClass:
    if not isinstance(raw, list):
        raise ModelFormatError("cover_class must be a list of entries", where)
    entries = []
    for k, item in enumerate(raw):
        loc = f"{where}/{k}"
        if not (isinstance(item, list) and len(item) == 4):
            raise ModelFormatError("cover_class entry must be [p, q, angle, mult]", loc)
        p, q, angle, mult = item
        if not isinstance(p, int) or not isinstance(q, int) or isinstance(p, bool) or isinstance(q, bool):
            raise ModelFormatError("p and q must be integers", loc)
        if not isinstance(mult, int) or isinstance(mult, bool) or mult == 0:
            raise ModelFormatError("multiplicity must be a nonzero integer", loc)
        entries.append(((p, q, _parse_angle(angle, loc)), mult))
    return EquivClass(entries)


def model_from_json(text: str) -> SncModel:
    """Parse and validate a model file; errors carry JSON-pointer locations."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be an object")
    _require_keys(data, ("n", "components", "strata"), "")
    if not isinstance(data["n"], int) or isinstance(data["n"], bool) or data["n"] < 0:
        raise ModelFormatError("n must be a non-negative integer", "/n")
    if not isinstance(data["components"], list) or not data["components"]:
        raise ModelFormatError("components must be a nonempty list", "/components")
    comps = []
    for k, item in enumerate(data["components"]):
        loc = f"/components/{k}"
        if not isinstance(item, dict):
            raise ModelFormatError("component must be an object", loc)
        _require_keys(item, ("id", "multiplicity", "kind"), loc)
        if not isinstance(item["id"], str) or not item["id"]:
            raise ModelFormatError("id must be a nonempty string", f"{loc}/id")
        mult = item["multiplicity"]
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
            raise ModelFormatError(
                "multiplicity must be a positive integer", f"{loc}/multiplicity"
            )
        if item["kind"] not in (VERTICAL, HORIZONTAL):
            raise ModelFormatError(
                f"kind must be '{VERTICAL}' or '{HORIZONTAL}'", f"{loc}/kind"
            )
        comps.append(SncComponent(item["id"], mult, item["kind"]))
    if not isinstance(data["strata"], list):
        raise ModelFormatError("strata must be a list", "/strata")
    strata = []
    for k, item in enumerate(data["strata"]):
        loc = f"/strata/{k}"
        if not isinstance(item, dict):
            raise ModelFormatError("stratum must be an object", loc)
        _require_keys(item, ("ids", "cover_class"), loc)
        ids = item["ids"]
        if (
            not isinstance(ids, list)
            or not ids
            or not all(isinstance(i, str) and i for i in ids)
        ):
            raise ModelFormatError("ids must be a nonempty list of strings", f"{loc}/ids")
        if len(set(ids)) != len(ids):
            raise ModelFormatError("ids must be distinct", f"{loc}/ids")
        strata.append(
            Stratum(tuple(ids), _parse_cover_class(item["cover_class"], f"{loc}/cover_class"))
        )
    try:
        return SncModel(data["n"], tuple(comps), tuple(strata))
    except ModelFormatError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise ModelFormatError(str(exc)) from None


def model_to_json(model: SncModel) -> str:
    """Canonical rendering: sorted components/strata/entries, 2-space indent,
    trailing newline.  Loading a canonical dump reproduces it byte for byte."""
    obj = {
        "n": model.n,
        "components": [
            {"id": c.id, "multiplicity": c.multiplicity, "kind": c.kind}
            for c in model.components
        ],
        "strata": [
            {
                "ids": list(s.ids),
                "cover_class": [
                    [p, q, str(f), m] for (p, q, f), m in s.cover_class.items()
                ],
            }
            for s in model.strata
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def load_model(path) -> SncModel:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"not valid UTF-8: {exc}") from None
    return model_from_json(text)


def save_model(model: SncModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
