"""Virtual equivariant Hodge classes and nearby-fiber evaluation on SNC models.

An ``EquivClass`` is an ``ExactMap`` (see ``exact``) with integer values on
triples (p, q, angle): Hodge bidegree plus the angle in [0, 1) of a
finite-order semisimple action.  Multiplication is convolution (bidegrees
add, angles add mod 1); the class L of the Tate twist has bidegree (1, 1)
and angle 0.  A class stores angle f as the int f * den in [0, den) over its
one denominator ``den``; ``entries``, ``terms`` and ``items()`` give it as a
Fraction.  The evaluator and both spectrum functionals work on the stored
ints.

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

The evaluator adds every stratum's weighted stored terms into one dict over
the lcm of the cover denominators, and builds the class once from it.

Model files are read by ``load_model`` (``model_from_json``) and written by
the caller from ``model_to_json``.  The reader checks each cover entry once,
reads each distinct angle string of a file once, and formats an error's
JSON-pointer location only when it raises.
"""

import json
import math
import operator
import warnings
from fractions import Fraction

from .errors import (
    HorizontalComponentError,
    MissingStratumWarning,
    ModelFormatError,
)
from .exact import MAX_DIMENSION, ExactMap, Record, exact_int, exact_rational
from .fracpoly import FracPoly

VERTICAL = "vertical"
HORIZONTAL = "horizontal"

# limit on the bits of a model file's integers: p, q and the multiplicity of
# a cover-class entry, and the lcm of the angle denominators, as written.
# Every stage rescales each stored angle numerator over that lcm, so a
# request costs about entries x bits, and no printed number nears the
# interpreter's limit on the digits of an int; the fixtures and the
# perfbench models need at most 9 bits
MAX_MODEL_BITS = 1_000


class EquivClass(ExactMap):
    """Virtual bigraded class with a finite-order action, as integer
    multiplicities on (p, q, angle) triples; ``entries`` is ``terms``."""

    __slots__ = ()
    _scalars = (int,)
    _unit = (0, 0, 0)
    _value = staticmethod(exact_int)
    _num = operator.itemgetter(2)

    @staticmethod
    def _key(key):
        p, q, f = key
        f = exact_rational(f)
        return (exact_int(p), exact_int(q), f.numerator % f.denominator), f.denominator

    @staticmethod
    def _with(k, n):
        return (k[0], k[1], n)

    @staticmethod
    def _public(k, den):
        return (k[0], k[1], Fraction(k[2], den))

    @staticmethod
    def _joiner(den):
        return lambda a, b: (a[0] + b[0], a[1] + b[1], (a[2] + b[2]) % den)

    @property
    def entries(self) -> dict:
        return self.terms

    @classmethod
    def lefschetz(cls):
        """The Tate class L: bidegree (1, 1), trivial action."""
        return cls({(1, 1, 0): 1})

    def __repr__(self):
        inner = ", ".join(f"({p},{q},{f}): {m}" for (p, q, f), m in self.items())
        return f"EquivClass({{{inner}}})"


class SncComponent(Record):
    """A component of the special fiber (kind VERTICAL) or of the horizontal boundary."""

    __slots__ = ("id", "multiplicity", "kind")

    def __init__(self, id: str, multiplicity: int, kind: str):
        if not id or not isinstance(id, str):
            raise ModelFormatError("component id must be a nonempty string", "/id")
        if not isinstance(multiplicity, int) or isinstance(multiplicity, bool) or multiplicity < 1:
            raise ModelFormatError(
                f"component {id!r} multiplicity must be a positive integer", "/multiplicity"
            )
        if kind not in (VERTICAL, HORIZONTAL):
            raise ModelFormatError(
                f"component {id!r} kind must be '{VERTICAL}' or '{HORIZONTAL}'", "/kind"
            )
        super().__init__(id, multiplicity, kind)


class Stratum(Record):
    __slots__ = ("ids", "cover_class")

    def __init__(self, ids: tuple[str, ...], cover_class: EquivClass):
        canonical = tuple(sorted(ids))
        if not canonical or len(set(canonical)) != len(canonical):
            raise ModelFormatError(f"stratum ids must be distinct and nonempty: {ids}", "/ids")
        super().__init__(canonical, cover_class)


class SncModel(Record):
    """Degeneration model: components, occurring strata, ambient fiber dimension n.

    Canonicalized on construction: components sorted by id, strata by id-set.
    n is at most ``MAX_DIMENSION``, and a stratum has at most n + 1 members:
    at a point of the (n + 1)-dimensional total space, an SNC divisor meets
    at most that many components.
    """

    __slots__ = ("n", "components", "strata")

    def __init__(self, n: int, components: tuple[SncComponent, ...], strata: tuple[Stratum, ...]):
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ModelFormatError("n must be a non-negative integer", "/n")
        if n > MAX_DIMENSION:
            raise ModelFormatError(f"n exceeds the limit of {MAX_DIMENSION}", "/n")
        comps = tuple(sorted(components, key=lambda c: c.id))
        ids = [c.id for c in comps]
        if len(set(ids)) != len(ids):
            raise ModelFormatError("duplicate component ids", "/components")
        if not any(c.kind == VERTICAL for c in comps):
            raise ModelFormatError("model needs at least one vertical component", "/components")
        strata = tuple(sorted(strata, key=lambda s: s.ids))
        known = set(ids)
        seen = set()
        for s in strata:
            if s.ids in seen:
                raise ModelFormatError(f"duplicate stratum {s.ids}", "/strata")
            seen.add(s.ids)
            if len(s.ids) > n + 1:
                raise ModelFormatError(
                    f"a stratum of {len(s.ids)} members exceeds the limit of n + 1 = {n + 1}",
                    "/strata",
                )
            for i in s.ids:
                if i not in known:
                    raise ModelFormatError(f"stratum references unknown component {i!r}", "/strata")
        super().__init__(n, comps, strata)

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

    The weight (1 - L)^e expands as the sum over j of (-1)^j C(e, j) L^j.
    Every stratum's weighted terms are added straight into one dict over
    the lcm of the cover denominators, each stored term read once, and one
    ``from_scaled`` call drops the zeros and reduces the denominator.
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
    den = math.lcm(*(s.cover_class.den for s in model.strata))
    acc: dict = {}
    for s in model.strata:
        # k vertical members; in the open variant k = |I|
        k = sum(1 for i in s.ids if i in vertical)
        if k and (variant == "total" or k == len(s.ids)):
            f, terms = den // s.cover_class.den, s.cover_class.scaled.items()
            for j in range(k):
                w = (-1) ** j * math.comb(k - 1, j)
                for (p, q, a), m in terms:
                    key = (p + j, q + j, a * f)
                    if key in acc:
                        acc[key] += m * w
                    else:
                        acc[key] = m * w
    return EquivClass.from_scaled(acc.items(), den)


def euler_specialization(c: EquivClass) -> int:
    """Sum of all virtual multiplicities (the L -> 1, action-forgotten limit)."""
    return sum(c.scaled.values())


def covering_degree(model: SncModel, ids) -> int:
    """Degree of the canonical cyclic cover over the stratum of the given
    vertical components: gcd of their multiplicities.  Over a C*-fiber
    stratum, the cover has as many connected components as the gcd taken
    over the adjacent vertical component as well."""
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


# -- spectrum functionals -------------------------------------------------------


def sp_prime_of_class(c: EquivClass) -> FracPoly:
    """Spectrum functional: entry (p, q, angle) with multiplicity m contributes
    m * t^(p + angle).  The q grading is ignored."""
    den = c.den
    return FracPoly.from_scaled(((p * den + a, m) for (p, q, a), m in c.scaled.items()), den)


def sp_of_class(c: EquivClass, n: int) -> FracPoly:
    """Twisted spectrum functional, computed independently of
    ``sp_prime_of_class``: the exponent lands in the interval (n-1-p, n-p]
    and is congruent to minus the angle mod 1; n is read by ``exact_int``."""
    den, n = c.den, exact_int(n)
    return FracPoly.from_scaled(
        (((n - 1 - p) * den + ((-a) % den or den), m) for (p, q, a), m in c.scaled.items()),
        den,
    )


def sp_prime_reduced(c: EquivClass, n: int) -> FracPoly:
    """Spectrum of the reduced class with the alternating-sign normalization
    for ambient dimension n (read by ``exact_int``): (-1)^(n-1) times the raw
    functional.  The reduced class is c - 1, c less the class of a point (the
    degree-0 cohomology of a connected fiber); the point goes to t^0, so the
    raw functional of c - 1 is that of c less 1, and the class is not copied."""
    s = sp_prime_of_class(c)
    return s - 1 if (exact_int(n) - 1) % 2 == 0 else 1 - s


# -- model files ----------------------------------------------------------------


def _require_keys(obj: dict, keys: tuple[str, ...], where: str):
    for k in obj:
        if k not in keys:
            raise ModelFormatError(f"unknown key {k!r}", f"{where}/{k}")
    for k in keys:
        if k not in obj:
            raise ModelFormatError(f"missing key {k!r}", where)


def _parse_angle(raw) -> tuple[int, int]:
    """An angle string in [0, 1) as (numerator, denominator), not always in
    lowest terms: "u/v" and "u" in ASCII digits are read by ``int``, any
    other spelling by ``exact_rational``.  Its errors carry no location: the
    caller knows the entry."""
    if not isinstance(raw, str):
        raise ModelFormatError("angle must be a string rational")
    num, slash, den = raw.partition("/")
    try:
        if num.isascii() and num.isdigit() and (not slash or den.isascii() and den.isdigit()):
            num, den = int(num), int(den or 1)
            if not den:
                raise ZeroDivisionError
        else:
            f = exact_rational(raw)
            num, den = f.numerator, f.denominator
    except ZeroDivisionError:
        raise ModelFormatError(f"bad angle {raw!r}: zero denominator") from None
    except ValueError as exc:
        raise ModelFormatError(f"bad angle {raw!r}: {exc}") from None
    if not (0 <= num < den):
        raise ModelFormatError(f"angle {raw!r} outside [0, 1)")
    return num, den


def _parse_cover_class(raw, where: str, den: int, angles: dict) -> tuple[EquivClass, int]:
    """The class and the new ``den``, the lcm of the distinct angle
    denominators of the file so far, as written.  Each entry is checked
    once, here, in a fixed order, and a location is formatted only for an
    error.  ``angles`` holds the reading of every angle string of the file
    met so far, so each distinct string is read once.  The file's lcm is
    refused as soon as it passes ``MAX_MODEL_BITS``, at the entry that takes
    it there, before any numerator is rescaled over it, and so are p, q and
    a multiplicity past that many bits.  The class's stored keys are the
    angles' numerators over that lcm."""
    if not isinstance(raw, list):
        raise ModelFormatError("cover_class must be a list of entries", where)
    entries = []
    for k, item in enumerate(raw):
        # JSON values: a list is exactly a list, an int exactly an int (bool
        # is its own type)
        if type(item) is not list or len(item) != 4:
            raise ModelFormatError("cover_class entry must be [p, q, angle, mult]", f"{where}/{k}")
        p, q, angle, mult = item
        if type(p) is not int or type(q) is not int:
            raise ModelFormatError("p and q must be integers", f"{where}/{k}")
        if type(mult) is not int or mult == 0:
            raise ModelFormatError("multiplicity must be a nonzero integer", f"{where}/{k}")
        # the bits of a negative int are those of its absolute value
        if (
            p.bit_length() > MAX_MODEL_BITS
            or q.bit_length() > MAX_MODEL_BITS
            or mult.bit_length() > MAX_MODEL_BITS
        ):
            raise ModelFormatError(
                f"p, q and the multiplicity must have at most {MAX_MODEL_BITS} bits", f"{where}/{k}"
            )
        parsed = angles.get(angle) if type(angle) is str else None
        if parsed is None:
            try:
                parsed = angles[angle] = _parse_angle(angle)
            except ModelFormatError as exc:
                raise ModelFormatError(exc.message, f"{where}/{k}") from None
        a, d = parsed
        if den % d:
            den = math.lcm(den, d)
            if den.bit_length() > MAX_MODEL_BITS:
                raise ModelFormatError(
                    "the lcm of the model's angle denominators exceeds the limit of "
                    f"{MAX_MODEL_BITS} bits",
                    where,
                )
        entries.append((p, q, a, d, mult))
    pairs = (((p, q, a * (den // d)), m) for p, q, a, d, m in entries)
    return EquivClass.from_scaled(pairs, den), den


def _located(where: str, build, *args):
    """``build(*args)``, with ``where`` prefixed to the location of its ModelFormatError."""
    try:
        return build(*args)
    except ModelFormatError as exc:
        raise ModelFormatError(exc.message, where + exc.location) from None


def model_from_json(text: str) -> SncModel:
    """Parse and validate a model file; errors carry JSON-pointer locations.

    The JSON shape and the cover-class entries are checked here, each entry
    once, with their integers and the lcm of the angle denominators held to
    ``MAX_MODEL_BITS``; the other fields are checked by the constructors of
    SncComponent, Stratum and SncModel."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ModelFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ModelFormatError("not valid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ModelFormatError("top level must be an object")
    _require_keys(data, ("n", "components", "strata"), "")
    if not isinstance(data["components"], list):
        raise ModelFormatError("components must be a list", "/components")
    comps = []
    for k, item in enumerate(data["components"]):
        loc = f"/components/{k}"
        if not isinstance(item, dict):
            raise ModelFormatError("component must be an object", loc)
        _require_keys(item, ("id", "multiplicity", "kind"), loc)
        comps.append(
            _located(loc, SncComponent, item["id"], item["multiplicity"], item["kind"])
        )
    if not isinstance(data["strata"], list):
        raise ModelFormatError("strata must be a list", "/strata")
    strata, den, angles = [], 1, {}
    for k, item in enumerate(data["strata"]):
        loc = f"/strata/{k}"
        if not isinstance(item, dict):
            raise ModelFormatError("stratum must be an object", loc)
        _require_keys(item, ("ids", "cover_class"), loc)
        ids = item["ids"]
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise ModelFormatError("ids must be a list of strings", f"{loc}/ids")
        cover, den = _parse_cover_class(item["cover_class"], f"{loc}/cover_class", den, angles)
        strata.append(_located(loc, Stratum, tuple(ids), cover))
    return _located("", SncModel, data["n"], tuple(comps), tuple(strata))


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

