"""Command-line front end.

Three subcommands: ``sp`` runs the polynomial-to-spectrum pipeline (both
routes, compared exactly), ``nearby`` evaluates a degeneration model file,
``check`` runs the built-in cross-validation battery.  Reports go to stdout,
human-readable by default, machine-readable with ``--json``; diagnostics go
to stderr, a warning of the library (a model component in no stratum) as one
``warning:`` line.

``sp`` checks ``--vars`` by the parser's name rule (``parse._NAME``) and works
weights first: it parses the polynomial, reads ``--weights`` or infers them,
and hands both to ``spectrum.analyze``, which checks homogeneity and the
closed-form Milnor number against its budget before its one Gröbner run.
``sp`` then compares the standard-monomial count with the closed form and
the basis-route spectrum with the product formula.

Exit codes: 0 success; 1 a check failed; 2 input or validation error, or a
report that could not be written (a closed pipe, a full disk), each reported
as one ``error:`` line; 3 internal failure: two routes disagreed, or any
other unexpected exception, reported as one ``internal error:`` line (a bug,
never user error).  An input that fails a weight check and would also fail
the isolation test reports the weight error: no Gröbner run is made for it.
``check`` takes no input, so it never exits 2 on its own corpus: a library
error raised inside a check is that check's FAIL line (exit 1), and every
check still reports.  Identical inputs produce byte-identical ``--json``
output.  The package writes that JSON itself (``_json``), byte-identical to
``json.dumps(report, sort_keys=True, indent=2)``, since any indent sends
``json`` to its pure-Python encoder.  ``nearby`` formats one angle string
per distinct stored numerator of its class.  ``sp`` writes both eigenvalue
conventions from one walk over the sorted angles (``_angles``), not through
``spectrum.eigenvalues_geometric``.

The argparse parser is built on the first ``main`` call and reused by every
later call in the same process; importing the module does not build it.

Importing the module loads only ``errors`` and ``exact`` of the package;
each subcommand imports what it runs when it runs: ``sp`` loads ``poly``,
``parse`` and ``spectrum`` (with ``milnor`` and ``fracpoly``), ``nearby``
loads ``motivic`` (with ``fracpoly``) and never ``poly``, and ``check`` loads
``checks``, which uses every module but ``kernel``.
"""

import argparse
import functools
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii as _esc

from .errors import (
    ConsistencyError,
    NonIsolatedSingularityError,
    NotWeightedHomogeneousError,
    SingspecError,
)
from .exact import Record, exact_rational, ratio


class Report(Record):
    """What a subcommand computed, with JSON-primitive values only.

    All rationals are strings "u/v" so no consumer is tempted to coerce to
    float.
    """

    __slots__ = ("kind", "data")

    def to_json(self) -> str:
        return _json({"data": self.data, "kind": self.kind}, "") + "\n"

    def render_text(self) -> str:
        """The report as "key: value" lines, or the battery's PASS and FAIL
        lines; a dict (eigenvalue angles) prints in the order it was built."""
        if self.kind == "check":
            lines = [
                f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}"
                for c in self.data["checks"]
            ]
            good = sum(1 for c in self.data["checks"] if c["passed"])
            total = len(self.data["checks"])
            lines.append(
                f"all checks passed ({good}/{total})"
                if self.data["passed"]
                else f"FAILED ({good}/{total} passed)"
            )
            return "\n".join(lines) + "\n"
        lines = []
        for key, value in self.data.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, dict):
                value = ", ".join(f"{k}:{m}" for k, m in value.items()) or "(empty)"
            elif key == "class":
                value = ", ".join(
                    f"({p},{q},{f}):{m}" for p, q, f, m in value
                ) or "0"
            elif isinstance(value, list):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _json(v, pad: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it, nested
    at indent ``pad``, for the values a report holds: dicts with str keys,
    lists, str, int, bool and None.  ``json`` gives up its C encoder for any
    indent; this writer keeps the escaping in C and writes the str and int
    leaves of a container inline."""
    t = type(v)
    if t is dict or t is list:
        if not v:
            return "{}" if t is dict else "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if t is dict:
            body = sep.join(
                _esc(k) + ": " + (
                    _esc(x) if type(x) is str else int.__repr__(x) if type(x) is int
                    else _json(x, inner)
                )
                for k, x in sorted(v.items())
            )
            return "{\n" + inner + body + "\n" + pad + "}"
        body = sep.join(
            _esc(x) if type(x) is str else int.__repr__(x) if type(x) is int else _json(x, inner)
            for x in v
        )
        return "[\n" + inner + body + "\n" + pad + "]"
    if t is str:
        return _esc(v)
    if t is int:
        return int.__repr__(v)
    if v is None or t is bool:
        return "null" if v is None else "true" if v else "false"
    raise TypeError(f"a report holds no {t.__name__}")


def _angles(e) -> tuple[dict, dict]:
    """An eigenvalue multiset and its negation (``eigenvalues_geometric``) as
    {"u/v": multiplicity}, each in ascending order of angle, from one walk
    over the sorted stored keys: int numerators over one denominator sort as
    the angles do, and a nonzero angle u/v negates to (v - u)/v, so the
    negated dict holds angle 0 first, then the nonzero angles in reverse."""
    den, scaled = e.den, e.scaled
    angles, negated = {}, []
    for k in sorted(scaled):
        m = scaled[k]
        if k:
            g = math.gcd(k, den)
            u, v = k // g, den // g
            angles[f"{u}/{v}"] = m
            negated.append((f"{v - u}/{v}", m))
        else:
            angles["0"] = m
    geometric = {"0": scaled[0]} if 0 in scaled else {}
    geometric.update(reversed(negated))
    return angles, geometric


def _split_names(raw: str) -> tuple[str, ...]:
    from .parse import _NAME
    names = tuple(v.strip() for v in raw.split(","))
    for v in names:
        if not _NAME.fullmatch(v):
            raise SingspecError(f"bad variable name {v!r}")
    if len(set(names)) != len(names):
        raise SingspecError(f"duplicate variable names in {raw!r}")
    return names


def _parse_weights(raw: str) -> list:
    ws = []
    for item in map(str.strip, raw.split(",")):
        try:
            ws.append(exact_rational(item))
        except ZeroDivisionError:
            raise SingspecError(f"bad weight list {raw!r}: zero denominator in {item!r}") from None
        except ValueError as exc:
            raise SingspecError(f"bad weight list {raw!r}: {exc}") from None
    return ws


def _run_sp(args) -> Report:
    from .fracpoly import sp_twist
    from .parse import parse_polynomial
    from .poly import as_weights
    from .spectrum import analyze, char_poly, eigenvalues_gamma_c

    variables = _split_names(args.vars)
    f = parse_polynomial(args.expr, variables)
    if not f:
        raise NonIsolatedSingularityError("the zero polynomial is singular everywhere")
    ws = None
    if args.weights is not None:
        ws = as_weights(_parse_weights(args.weights), len(variables))
    try:
        a = analyze(f, ws)
    except NotWeightedHomogeneousError:
        raise NotWeightedHomogeneousError(
            f"{args.expr!r} is not weighted-homogeneous for weights {args.weights}"
        ) from None
    except NonIsolatedSingularityError:
        raise NonIsolatedSingularityError(
            f"{args.expr!r} does not define an isolated singularity at the origin"
        ) from None
    mu = len(a.basis)
    if mu != a.mu_closed:
        raise ConsistencyError(f"standard monomial count {mu} != weight product {a.mu_closed}")
    s_basis = a.s_basis
    if s_basis != a.s_formula:
        raise ConsistencyError(
            f"spectrum routes disagree: basis gave {s_basis}, formula gave {a.s_formula}"
        )
    eig_c = eigenvalues_gamma_c(s_basis)
    gamma_c, geometric = _angles(eig_c)
    # both conventions give the same char poly: Galois stability is closed
    # under angle negation
    return Report(
        "sp",
        {
            "input": args.expr,
            "variables": list(variables),
            "weights": [str(w) for w in a.basis.weights],
            "dimension": len(variables),
            "mu": mu,
            "spectrum": str(s_basis),
            "symmetric": s_basis == sp_twist(s_basis, len(variables)),
            "eigenvalues_gamma_c": gamma_c,
            "eigenvalues_geometric": geometric,
            "char_poly": str(char_poly(eig_c)),
        },
    )


def _run_nearby(args) -> Report:
    from .fracpoly import sp_twist
    from .motivic import (
        euler_specialization,
        load_model,
        nearby_fiber_class,
        sp_prime_of_class,
        sp_prime_reduced,
    )

    model = load_model(args.model)
    with warnings.catch_warnings(record=True) as caught:
        cls = nearby_fiber_class(model, args.variant)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if args.variant == "local":
        # Milnor-fiber reading: drop H^0 and unfold the alternating signs
        sp_p = sp_prime_reduced(cls, model.n)
        normalization = "reduced-signed"
    else:
        sp_p = sp_prime_of_class(cls)
        normalization = "raw"
    den, scaled = cls.den, cls.scaled
    # one angle string per distinct stored numerator; the stored keys sort as
    # the (p, q, angle) triples do
    angle = {a: ratio(a, den) for a in {k[2] for k in scaled}}
    return Report(
        "nearby",
        {
            "model": args.model,
            "variant": args.variant,
            "dimension": model.n,
            "class": [[k[0], k[1], angle[k[2]], scaled[k]] for k in sorted(scaled)],
            "euler": euler_specialization(cls),
            "normalization": normalization,
            "sp_prime": str(sp_p),
            "sp": str(sp_twist(sp_p, model.n)),
        },
    )


def _run_check(args) -> Report:
    from . import checks

    corpus = checks.build_corpus()
    results = checks.run_all(corpus)
    return Report(
        "check",
        {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
            "passed": all(r.passed for r in results),
            "corpus_cases": len(corpus),
        },
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singspec",
        description="exact spectra, monodromy data, and nearby-fiber classes "
        "for weighted-homogeneous isolated singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sp", help="spectrum of a polynomial singularity")
    sp.add_argument(
        "expr",
        help="polynomial, e.g. \"x^2 + y^3\"; put -- before one that starts with a minus",
    )
    sp.add_argument(
        "--vars",
        required=True,
        help="comma-separated variable names; fixes exponent order",
    )
    sp.add_argument(
        "--weights",
        help="comma-separated rationals like 1/2,1/3; inferred when omitted",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")

    nb = sub.add_parser("nearby", help="evaluate a degeneration model file")
    nb.add_argument("model", help="path to a JSON model file")
    nb.add_argument(
        "--variant",
        choices=("total", "open", "local"),
        default="total",
        help="total: strata meeting the special fiber; open: strata inside it; "
        "local: total over a caller-restricted stratum list, reported as a "
        "Milnor-fiber spectrum",
    )
    nb.add_argument("--json", action="store_true", help="machine-readable output")

    ck = sub.add_parser("check", help="run the built-in cross-validation battery")
    ck.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


_RUNNERS = {"sp": _run_sp, "nearby": _run_nearby, "check": _run_check}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = None
    try:
        report = _RUNNERS[args.command](args)
        sys.stdout.write(report.to_json() if args.json else report.render_text())
        sys.stdout.flush()
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except SingspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if report is not None:
            # the report could not be written: point stdout at the null
            # device, so the bytes still buffered do not fail again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if report.kind == "check" and not report.data["passed"]:
        return 1
    return 0
