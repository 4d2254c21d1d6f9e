"""A seeded fuzzer for the command line: about 1,000 requests, in process.

``sp`` argv come from a small grammar: Brieskorn-Pham pure powers plus mixed
atoms of weighted degree 1 in up to three variables, with random
coefficients, spellings, ``--weights`` and ``--json``.  ``nearby`` models are
the two fixtures with their angles re-spelled, multiplicities split, entries
shuffled and, now and then, a stratum dropped or ``n`` changed.  Each leaf
(a token of the argv, a value of the model) is then mutated with probability
``RATE``, below 1 %, so most requests stay valid; the mutation alphabet holds
non-ASCII digits.  One model in twenty then gets a few hundred entries whose
angles have large, distinct denominators.  One request in fifty is oversized:
``sp`` over hundreds of variables or with exponents of thousands of digits,
or ``nearby`` with a multiplicity of 4,300 digits.

Every request must exit 0 or 2 within ``BOUND_S``, with no traceback and no
``internal error`` on stderr.  Warnings are errors here, as under
``python -W error``.
"""

import itertools
import json
import random
import time
import warnings
from fractions import Fraction
from pathlib import Path

from singspec import cli

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

RATE = 0.005
# the slowest request of three runs took 7.2 ms (Python 3.11, a 2-core Xeon);
# the bound is far above it, for loaded machines, and far below a runaway
BOUND_S = 1.0

NON_ASCII = "٣²５١٢"
ALPHABET = "0123456789+-*/^(). ,_xyzé" + NON_ASCII
ODD_LEAVES = (-1, 0, 7, 10**30, 1.5, True, None, "", "x", "1/0", "١/٢", "1e-999999999", [], {})


def _mutate_text(rng, s: str) -> str:
    i = rng.randint(0, len(s))
    how = rng.randrange(3)
    if how == 0:
        return s[:i] + rng.choice(ALPHABET) + s[i:]
    if how == 1:
        return s[:i] + s[i + 1:]
    return s[:i] + rng.choice(ALPHABET) + s[i + 1:]


def _leaf(rng, s: str) -> str:
    return _mutate_text(rng, s) if rng.random() < RATE else s


# -- sp requests ---------------------------------------------------------------


def _monomial(rng, names, e) -> list[str]:
    parts = []
    for v, k in zip(names, e):
        if k == 1:
            parts.append(v)
        elif k > 1:
            parts.append(rng.choice((f"{v}^{k}", f"({v})^{k}", "*".join([v] * k))))
    return parts


def _oversized_sp_argv(rng) -> list[str]:
    """A sum of squares in 250 to 300 variables (its Gröbner run took 4 to 7 s
    before the limit on the dimension), or two pure powers whose exponents
    have 4,299 digits (their Milnor number has more digits than str converts)."""
    if rng.random() < 0.5:
        names = [f"x{i}" for i in range(rng.randint(250, 300))]
        return ["sp", "+".join(f"{v}^2" for v in names), "--vars", ",".join(names)]
    a, b = ("".join(rng.choices("123456789", k=4299)) for _ in range(2))
    return ["sp", f"x^{a}+y^{b}", "--vars", "x,y"]


def _sp_argv(rng) -> list[str]:
    if rng.random() < 0.02:
        return _oversized_sp_argv(rng)
    n = rng.randint(1, 3)
    names = rng.sample(("x", "y", "z", "u", "v1", "w_2"), n)
    exps = [rng.randint(2, 7) for _ in range(n)]
    weights = [Fraction(1, a) for a in exps]
    atoms = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]
    mixed = [
        e
        for e in itertools.product(*(range(a) for a in exps))
        if sum(w * k for w, k in zip(weights, e)) == 1
    ]
    atoms += rng.sample(mixed, min(len(mixed), rng.randint(0, 2)))
    if rng.random() < 0.1:  # a term off the weights: not weighted-homogeneous
        atoms.append(tuple(rng.randint(0, 3) for _ in range(n)))
    rng.shuffle(atoms)
    tokens = []
    for e in atoms:
        # a leading " -" keeps argparse from reading the expression as an option
        sign = rng.choice(("+", "+", "-")) if tokens else rng.choice(("", "+", " -"))
        coef = rng.choice(("", "", "2*", "3/2*", "1*", "(1/3)*"))
        factors = _monomial(rng, names, e) or ["1"]
        tokens += [sign, coef, *(f"{p}*" for p in factors[:-1]), factors[-1]]
    sep = rng.choice(("", " "))
    expr = sep.join(_leaf(rng, t) for t in tokens if t)
    argv = [_leaf(rng, "sp"), expr, _leaf(rng, "--vars"), ",".join(_leaf(rng, v) for v in names)]
    if rng.random() < 0.4:
        spell = rng.choice((str, lambda w: f"{2 * w.numerator}/{2 * w.denominator}"))
        argv += [_leaf(rng, "--weights"), ",".join(_leaf(rng, spell(w)) for w in weights)]
    if rng.random() < 0.5:
        argv.append(_leaf(rng, "--json"))
    return argv


# -- nearby requests -------------------------------------------------------------


def _angle(rng, f: Fraction) -> str:
    c = rng.randint(1, 3)
    if f == 0:
        return rng.choice(("0", "0/5", "00"))
    return rng.choice((f"{f.numerator * c}/{f.denominator * c}", str(f), f" {f}"))


def _respell(rng, model: dict) -> dict:
    """The same model, spelled otherwise: re-spelled angles, split
    multiplicities, shuffled lists; now and then a stratum dropped or n changed."""
    for s in model["strata"]:
        entries = []
        for p, q, a, m in s["cover_class"]:
            f = Fraction(a)
            if rng.random() < 0.3:
                k = rng.choice([k for k in (-2, -1, 1, 2) if k != m])
                entries += [[p, q, _angle(rng, f), k], [p, q, _angle(rng, f), m - k]]
            else:
                entries.append([p, q, _angle(rng, f), m])
        rng.shuffle(entries)
        s["cover_class"] = entries
    rng.shuffle(model["components"])
    rng.shuffle(model["strata"])
    if rng.random() < 0.05:
        model["strata"].pop()
    if rng.random() < 0.1:
        model["n"] = rng.randint(0, 3)
    return model


def _spread(rng, model: dict) -> dict:
    """The model with a few hundred entries added over large, distinct angle
    denominators, whose lcm would have tens of thousands of bits."""
    for _ in range(rng.randint(300, 500)):
        d = rng.randrange(10**49, 10**50)
        entry = [rng.randint(0, 2), rng.randint(0, 2), f"{rng.randrange(d)}/{d}", rng.choice((-1, 1))]
        rng.choice(model["strata"])["cover_class"].append(entry)
    return model


def _oversize(rng, model: dict) -> dict:
    """The model with two entries of multiplicity 10^4300 - 1 at one key of a
    one-member stratum: their sum has more digits than str converts."""
    entry = [0, 0, "0", 10**4300 - 1]
    rng.choice([s for s in model["strata"] if len(s["ids"]) == 1])["cover_class"] += [entry] * 2
    return model


def _mutate_leaves(rng, x):
    if isinstance(x, dict):
        return {k: _mutate_leaves(rng, v) for k, v in x.items()}
    if isinstance(x, list):
        return [_mutate_leaves(rng, v) for v in x]
    if rng.random() >= RATE:
        return x
    if isinstance(x, str) and rng.random() < 0.5:
        return _mutate_text(rng, x)
    return rng.choice(ODD_LEAVES)


def _nearby_argv(rng, fixtures, path: Path) -> list[str]:
    model = _mutate_leaves(rng, _respell(rng, json.loads(rng.choice(fixtures))))
    if rng.random() < 0.05:  # after the mutations, so that the added entries stay valid
        model = _spread(rng, model)
    if rng.random() < 0.02:
        model = _oversize(rng, model)
    text = json.dumps(model, ensure_ascii=False, indent=rng.choice((None, 2)))
    if rng.random() < RATE * 10:  # the file itself, not a value in it
        text = _mutate_text(rng, text)
    path.write_text(text, encoding="utf-8")
    argv = [_leaf(rng, "nearby"), str(path)]
    argv += [_leaf(rng, "--variant"), _leaf(rng, rng.choice(("total", "open", "local")))]
    if rng.random() < 0.5:
        argv.append(_leaf(rng, "--json"))
    return argv


# -- the run -------------------------------------------------------------------


def _run(capsys, argv) -> tuple[int, str, float]:
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr().err, elapsed


def test_fuzzed_requests_exit_0_or_2_promptly(capsys, tmp_path):
    rng = random.Random(20121019)
    fixtures = [(FIXTURES / f).read_text() for f in ("cusp_resolution.json", "i2_semistable.json")]
    codes = {"sp": [], "nearby": []}
    for i in range(1_000):
        kind = "sp" if i % 5 < 3 else "nearby"
        if kind == "sp":
            argv = _sp_argv(rng)
        else:
            argv = _nearby_argv(rng, fixtures, tmp_path / f"model{i}.json")
        code, err, elapsed = _run(capsys, argv)
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)
        assert elapsed < BOUND_S, (argv, elapsed)
        codes[kind].append(code)
    # most requests are valid, and every kind also reaches its error paths
    for kind, seen in codes.items():
        assert 0.5 < seen.count(0) / len(seen) < 1, (kind, seen.count(0), len(seen))
