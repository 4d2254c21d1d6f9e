import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from singspec import EquivClass, FracPoly, MissingStratumWarning
from singspec.checks import CheckResult
from singspec import cli, spectrum
from singspec.cli import Report, main
from singspec.milnor import MAX_MU
from singspec.motivic import MAX_MODEL_BITS
from singspec.parse import MAX_NESTING, MAX_POWER_BITS, MAX_POWER_TERMS
from singspec.exact import MAX_DIMENSION
from singspec.spectrum import MAX_DENSE

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
I2 = str(FIXTURES / "i2_semistable.json")
CUSP = str(FIXTURES / "cusp_resolution.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _quick_refusal(capsys, argv) -> str:
    """The one ``error:`` line of a request that must exit 2 within 1 s."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1, argv[:2]
    assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err


NINES = "9" * 4299  # str refuses an int of 4,301 or more digits


def test_sp_leading_minus_after_double_dash(capsys):
    code, out, err = run(capsys, "sp", "--vars", "x,y", "--", "-x^2+y^3")
    assert (code, err) == (0, "")
    assert "spectrum: t^(5/6) + t^(7/6)\n" in out
    assert "input: -x^2+y^3\n" in out


def test_sp_text_output(capsys):
    code, out, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y")
    assert code == 0
    assert "spectrum: t^(5/6) + t^(7/6)" in out
    assert "mu: 2" in out
    assert "weights: 1/2, 1/3" in out
    assert "symmetric: true" in out
    assert err == ""


def test_sp_json_output(capsys):
    code, out, _ = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y", "--json")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["spectrum"] == "t^(5/6) + t^(7/6)"
    assert data["mu"] == 2
    assert data["weights"] == ["1/2", "1/3"]
    assert data["eigenvalues_gamma_c"] == {"1/6": 1, "5/6": 1}
    assert data["char_poly"] == "T^2 - T + 1"
    assert data["symmetric"] is True


def test_sp_explicit_weights(capsys):
    code, out, _ = run(
        capsys, "sp", "x^2 + y^2 + z^2", "--vars", "x,y,z", "--weights", "1/2,1/2,1/2", "--json"
    )
    assert code == 0
    data = json.loads(out)["data"]
    assert data["spectrum"] == "t^(3/2)"
    assert data["mu"] == 1


def test_sp_underdetermined_needs_weights(capsys):
    code, _, err = run(capsys, "sp", "x*y", "--vars", "x,y")
    assert code == 2
    assert "weights" in err
    code, out, _ = run(capsys, "sp", "x*y", "--vars", "x,y", "--weights", "1/2,1/2")
    assert code == 0
    assert "mu: 1" in out


def test_sp_error_paths(capsys):
    cases = (
        ("x^2*y",),  # non-isolated
        ("x^2 + z",),  # unknown variable
        ("x^2 +",),  # syntax
        ("0",),  # zero polynomial
    )
    for (expr,) in cases:
        code, out, err = run(capsys, "sp", expr, "--vars", "x,y")
        assert code == 2, expr
        assert out == ""  # no partial report
        assert err.startswith("error:")


def test_sp_deep_nesting_exits_2(capsys):
    depth = 5000
    code, out, err = run(capsys, "sp", "(" * depth + "x" + ")" * depth, "--vars", "x")
    assert code == 2
    assert out == ""
    # the first '(' beyond the limit sits at offset MAX_NESTING
    assert err == f"error: parentheses nested deeper than {MAX_NESTING} (at offset {MAX_NESTING})\n"


def test_sp_huge_milnor_number_exits_2_promptly(capsys):
    # mu = 99999999998 standard monomials: refused from the weights alone;
    # (N - 1)^2 has more digits than str converts, so its size is printed
    n = int(NINES)
    for expr, mu in (
        ("x^99999999999 + y^2", "99999999998"),
        (f"x^{n}+y^{n}", f"<{((n - 1) ** 2).bit_length()}-bit number>"),
    ):
        err = _quick_refusal(capsys, ("sp", expr, "--vars", "x,y"))
        assert err == f"error: Milnor number {mu} from the weights exceeds the limit of {MAX_MU}\n"


def test_sp_huge_dense_length_exits_2_promptly(capsys):
    # mu = 1, but the product formula would expand 2 * 10^7 + 1 coefficients;
    # with B = 10^4300 - 1 it would expand 6B + 1, too many digits to print
    b = int(NINES + "9")
    for argv, length in (
        (("x*y", "--vars", "x,y", "--weights", "4999999/10000000,5000001/10000000"), "20000001"),
        (("x*y+z^2", "--vars", "x,y,z", "--weights", f"1/{b},{b - 1}/{b},1/2"),
         f"<{(6 * b + 1).bit_length()}-bit number>"),
    ):
        err = _quick_refusal(capsys, ("sp", *argv))
        assert err == (
            f"error: dense length {length} of the weight product exceeds the limit of {MAX_DENSE}\n"
        )


def _cyclic_sum(n, term):
    """sp arguments for the sum over i < n of term.format(i=i, j=(i + 1) % n)."""
    expr = " + ".join(term.format(i=i, j=(i + 1) % n) for i in range(n))
    return expr, "--vars", ",".join(f"x{i}" for i in range(n))


def test_sp_char_poly_budget_exits_2_promptly(capsys):
    # inside every other budget, but the char poly would take minutes, and
    # for 16 cubes its coefficients pass the digits str converts (an exit 3)
    for n, term, work in (
        (16, "x{i}^3", 1_431_721_302),
        (15, "x{i}^3", 357_979_480),
        (8, "x{i}^4*x{j}", 859_058_996),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "sp", *_cyclic_sum(n, term))
        assert time.perf_counter() - start < 10, n
        assert (code, out) == (2, ""), n
        assert err == (
            f"error: dense work {work} of the binomial product exceeds the limit of "
            f"{spectrum.MAX_BINOMIAL_WORK}\n"
        )
    # 12 cubes: work 5,596,502, admitted
    code, out, err = run(capsys, "sp", *_cyclic_sum(12, "x{i}^3"))
    assert (code, err) == (0, "")
    assert "mu: 4096\n" in out and "char_poly: T^4096 - " in out
    # 10 cubes and two sextics: work 113,617,238, admitted; its char poly is
    # (T^6 - 1)^4096 (T^3 - 1)^341 (T - 1), all but 342 passes written at once
    cubes = " + ".join(f"x{i}^3" for i in range(10))
    vs = ",".join(f"x{i}" for i in range(12))
    code, out, err = run(capsys, "sp", f"{cubes} + x10^6 + x11^6", "--vars", vs)
    assert (code, err) == (0, "")
    assert "mu: 25600\n" in out and "char_poly: T^25600 - " in out


def test_sp_huge_powers_exit_2_promptly(capsys):
    # each would spend minutes expanding the power before the budget
    limits = f"limits of {MAX_POWER_TERMS} terms and {MAX_POWER_BITS} bits"
    for expr, size, offset in (
        ("(x+y)^3000", "term count up to 3001 and coefficients up to 3000 bits", 6),
        ("3^20000000*x^2+y^3", "term count up to 1 and coefficients up to 40000000 bits", 2),
        # comb(N + 2, 2) terms: more digits than str converts
        (f"(x+y+1)^{NINES}",
         f"term count up to <{math.comb(int(NINES) + 2, 2).bit_length()}-bit number> and "
         f"coefficients up to <{(2 * int(NINES)).bit_length()}-bit number> bits", 8),
    ):
        err = _quick_refusal(capsys, ("sp", expr, "--vars", "x,y"))
        assert err == f"error: power with {size} exceeds the {limits} (at offset {offset})\n"


def test_refusal_lines_stay_short(capsys):
    # (x+y+z)^N: both its term count and its bit count 2N are huge; each
    # prints as its size, so the one error line stays short
    err = _quick_refusal(capsys, ("sp", f"(x+y+z)^{NINES}", "--vars", "x,y,z"))
    assert len(err.encode()) < 200, err
    assert f"coefficients up to <{(2 * int(NINES)).bit_length()}-bit number> bits" in err


def test_sp_huge_product_exits_2_promptly(capsys):
    # the first product is refused from closed-form bounds on its factors,
    # before either power is expanded: 3321 monomials of degree 80, and
    # 10 + 2 * 62 bits (ceil(log2 3^39) for each power); the others multiply
    # single terms in closed form, under the bits _bits counts for them
    limits = f"limits of {MAX_POWER_TERMS} terms and {MAX_POWER_BITS} bits"
    for expr, size, offset, variables in (
        ("(x+y+z)^40*(x+y+z)^40*(x+y+z)^40",
         "term count up to 3321 and coefficients up to 134 bits", 10, "x,y,z"),
        ("7*x^2*" + "9" * 310 + "*y + y^3",
         "term count up to 1 and coefficients up to 1033 bits", 5, "x,y"),
        ("x^2*1/" + "3" * 200 + "*2^340 + y^3",
         "term count up to 1 and coefficients up to 1003 bits", 206, "x,y"),
        ("2^500*x*2^501*y + y^3",
         "term count up to 1 and coefficients up to 1001 bits", 7, "x,y"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "sp", expr, "--vars", variables)
        assert time.perf_counter() - start < 2, expr
        assert (code, out) == (2, ""), expr
        assert err == f"error: product with {size} exceeds the {limits} (at offset {offset})\n"


def test_sp_huge_sum_of_powers_exits_2_promptly(capsys):
    # 300 summands in one merge, and a box bound that stops once past comb(301, 2);
    # the 30 variables each take ten exponents of 4,001 digits
    n = "9" * 4000
    names = [f"x{i}" for i in range(30)]
    expr = "(" + "+".join(f"{v}^{n}{d}" for v in names for d in range(10)) + ")^2"
    start = time.perf_counter()
    code, out, err = run(capsys, "sp", expr, "--vars", ",".join(names))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: power with term count up to 45150 ") and err.count("\n") == 1


def test_sp_huge_monomial_power_exits_2_promptly(capsys):
    # x_i^N in closed form; by repeated squaring the 20 powers took 6 s
    n = "9" * 4000
    names = [f"x{i}" for i in range(20)]
    expr = "*".join(f"{v}^{n}" for v in names)
    start = time.perf_counter()
    code, out, err = run(capsys, "sp", expr, "--vars", ",".join(names))
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err == "error: weights are not determined by the exponents; pass them explicitly\n"


@pytest.fixture
def buchberger_calls(monkeypatch):
    """The argument lists of every Gröbner run made through ``milnor``: calls
    of its core, ``_minimal_basis``, which ``buchberger`` and the leads-only
    path of ``milnor_basis`` share."""
    import singspec.milnor

    calls = []
    real = singspec.milnor._minimal_basis

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(singspec.milnor, "_minimal_basis", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("x^3*y + y^4", "--vars", "x,y"),  # chain
        ("x^2*y + y^3*z + z^4", "--vars", "x,y,z"),  # chain
        ("x^3*y + x*y^3", "--vars", "x,y"),  # loop
        ("x^2*y + y^2*z + z^2*x", "--vars", "x,y,z"),  # loop
        ("x*y", "--vars", "x,y", "--weights", "1/2,1/2"),
    ],
)
def test_sp_runs_buchberger_once(capsys, buchberger_calls, argv):
    code, _, err = run(capsys, "sp", *argv)
    assert (code, err) == (0, "")
    assert len(buchberger_calls) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("x^2 + x^3 + y^3", "--vars", "x,y"),  # inconsistent
        ("x*y", "--vars", "x,y"),  # underdetermined
        ("x^2 + y^3", "--vars", "x,y", "--weights", "1/2,1/2"),  # not homogeneous
    ],
)
def test_sp_weight_errors_run_no_buchberger(capsys, buchberger_calls, argv):
    code, out, _ = run(capsys, "sp", *argv)
    assert (code, out) == (2, "")
    assert buchberger_calls == []


def test_sp_weight_error_outranks_non_isolation(capsys):
    # not isolated either; the weights are refused before any Gröbner run
    start = time.perf_counter()
    code, out, err = run(capsys, "sp", "(x+y+z)^20+x^21+y^22", "--vars", "x,y,z")
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == "error: no weight vector makes every term weighted degree 1\n"


def test_sp_non_isolated_with_good_weights_keeps_its_message(capsys):
    code, out, err = run(capsys, "sp", "x^2*y", "--vars", "x,y", "--weights", "1/3,1/3")
    assert (code, out) == (2, "")
    assert err == "error: 'x^2*y' does not define an isolated singularity at the origin\n"


def test_sp_overlong_integer_literals_exit_2(capsys):
    nines = "9" * 5000
    for expr, offset in ((f"x^{nines}+y^2", 2), (f"{nines}*x^2+y^3", 0)):
        code, out, err = run(capsys, "sp", expr, "--vars", "x,y")
        assert code == 2
        assert out == ""
        assert err.startswith("error: integer literal of 5000 digits exceeds the limit of ")
        assert err.endswith(f" (at offset {offset})\n")


def test_sp_non_ascii_digits_exit_2(capsys):
    for expr, ch, offset in (("x^²", "²", 2), ("x^2+y^³", "³", 6), ("٣*x^2+y^3", "٣", 0)):
        code, out, err = run(capsys, "sp", expr, "--vars", "x,y")
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {ch!r} (at offset {offset})\n"
    # Fraction and int would read these digits as 3 and 2
    code, out, err = run(capsys, "sp", "x^2+y^3", "--vars", "x,y", "--weights", "1/2,1/٣")
    assert (code, out) == (2, "")
    assert err == "error: bad weight list '1/2,1/٣': unexpected character '٣'\n"


def test_sp_rejects_bad_flag_values(capsys):
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,x")
    assert code == 2 and "duplicate" in err
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,2y")
    assert code == 2
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,oops")
    assert code == 2
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,1/2")
    assert code == 2 and "weighted-homogeneous" in err


def test_sp_vars_names_follow_the_parser_rule(capsys):
    for names, line in (
        ("x,1y", "error: bad variable name '1y'\n"),
        ("x,é", "error: bad variable name 'é'\n"),
        ("x,,y", "error: bad variable name ''\n"),
        ("x,x", "error: duplicate variable names in 'x,x'\n"),
    ):
        assert run(capsys, "sp", "x^2 + y^3", "--vars", names) == (2, "", line), names
    code, out, err = run(capsys, "sp", "x^2 + y^3", "--vars", " x , y ", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["data"]["variables"] == ["x", "y"]


def test_sp_consistency_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "singspec.spectrum.sp_product_formula", lambda ws: FracPoly()
    )
    code, out, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y")
    assert code == 3
    assert out == ""
    assert "consistency" in err


def test_nearby_i2(capsys):
    code, out, _ = run(capsys, "nearby", I2, "--json")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["class"] == []
    assert data["euler"] == 0
    assert data["sp_prime"] == "0"


def test_nearby_cusp_local(capsys):
    code, out, _ = run(capsys, "nearby", CUSP, "--variant", "local", "--json")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["sp_prime"] == "t^(5/6) + t^(7/6)"
    assert data["sp"] == "t^(5/6) + t^(7/6)"
    assert data["euler"] == -1
    assert data["normalization"] == "reduced-signed"
    assert data["class"] == [[0, 0, "0", 1], [0, 1, "5/6", -1], [1, 0, "1/6", -1]]


def test_nearby_twists_by_the_model_n_and_has_no_dim_option(capsys, tmp_path):
    model = json.loads(Path(CUSP).read_text(encoding="utf-8"))
    model["n"] = 3
    path = tmp_path / "cusp3.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    code, out, _ = run(capsys, "nearby", str(path), "--variant", "total", "--json")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["dimension"] == 3
    # raw functional, then twisted by 3
    assert data["sp_prime"] == "1 - t^(5/6) - t^(7/6)"
    assert data["sp"] == "-t^(11/6) - t^(13/6) + t^3"
    with pytest.raises(SystemExit) as exc:
        main(["nearby", CUSP, "--dim", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim 3" in capsys.readouterr().err


def test_nearby_missing_file(capsys):
    code, out, err = run(capsys, "nearby", "/nonexistent/model.json")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_nearby_schema_error_location(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "components": [], "strata": []}', encoding="utf-8")
    code, _, err = run(capsys, "nearby", str(bad))
    assert code == 2
    assert "/components" in err


def test_nearby_non_utf8_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"n": 1, "components": [], "strata": []}')
    code, out, err = run(capsys, "nearby", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: not valid UTF-8")
    assert err.count("\n") == 1


def test_nearby_missing_stratum_as_error_exits_2(capsys, tmp_path):
    # where warnings are errors, a component in no stratum is an input error
    model = tmp_path / "partial.json"
    model.write_text(
        json.dumps(
            {
                "n": 1,
                "components": [
                    {"id": "A", "multiplicity": 1, "kind": "vertical"},
                    {"id": "B", "multiplicity": 2, "kind": "vertical"},
                ],
                "strata": [{"ids": ["A"], "cover_class": [[0, 0, "0", 1]]}],
            }
        ),
        encoding="utf-8",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", MissingStratumWarning)
        code, out, err = run(capsys, "nearby", str(model))
    assert (code, out, err) == (2, "", "error: component 'B' appears in no stratum\n")


def test_nearby_missing_stratum_is_one_warning_line(capsys, tmp_path):
    # a vertical component in no stratum leaves the cusp's class as it is
    data = json.loads(Path(CUSP).read_text(encoding="utf-8"))
    data["components"].append({"id": "F", "multiplicity": 1, "kind": "vertical"})
    model = tmp_path / "cusp_and_f.json"
    model.write_text(json.dumps(data), encoding="utf-8")
    _, want, _ = run(capsys, "nearby", CUSP)
    want = want.replace(f"model: {CUSP}\n", f"model: {model}\n")
    for _ in range(2):  # every call warns, not only the first in a process
        code, out, err = run(capsys, "nearby", str(model))
        assert (code, out, err) == (0, want, "warning: component 'F' appears in no stratum\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MissingStratumWarning)
        assert run(capsys, "nearby", str(model)) == (0, want, "")


def test_check_passes(capsys):
    code, out, _ = run(capsys, "check")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # ten checks + summary
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "all checks passed (10/10)"


def test_check_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "check", "--json")
    code2, out2, _ = run(capsys, "check", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["data"]["passed"] is True
    assert payload["data"]["corpus_cases"] >= 100


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("synthetic fault")

    monkeypatch.setitem(cli._RUNNERS, "sp", boom)
    code, out, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: synthetic fault\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mu_closed", 3, "standard monomial count 2 != weight product 3"),
        (
            "s_formula",
            FracPoly({"5/6": 2}),
            "spectrum routes disagree: basis gave t^(5/6) + t^(7/6), formula gave 2*t^(5/6)",
        ),
    ],
)
def test_sp_exits_3_when_the_routes_disagree(capsys, monkeypatch, field, value, message):
    real = spectrum.analyze

    def planted(f, weights):
        a = real(f, weights)
        values = {name: getattr(a, name) for name in a.__slots__}
        return type(a)(**{**values, field: value})

    monkeypatch.setattr(spectrum, "analyze", planted)
    code, out, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y")
    assert code == 3
    assert out == ""
    assert err == f"internal consistency failure: {message}\n"


def test_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "singspec.checks.run_all",
        lambda corpus: [CheckResult("injected", False, "synthetic failure")],
    )
    code, out, _ = run(capsys, "check")
    assert code == 1
    assert "FAIL injected" in out


def test_check_builds_the_corpus_once(capsys, monkeypatch):
    from singspec import checks

    calls = []
    real = checks.build_corpus

    def counted():
        calls.append(None)
        return real()

    monkeypatch.setattr(checks, "build_corpus", counted)
    code, _, _ = run(capsys, "check")
    assert code == 0
    assert len(calls) == 1


def test_report_round_trip(capsys):
    _, out, _ = run(capsys, "sp", "x^3 + y^3", "--vars", "x,y", "--json")
    obj = json.loads(out)
    report = Report(kind=obj["kind"], data=obj["data"])
    assert json.loads(report.to_json()) == {"kind": report.kind, "data": report.data}
    assert report.to_json() == out


def _random_json(rng, depth=0):
    """A nested value of the kinds a report holds, with hostile strings."""
    pieces = ("a", "u/v", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "∂", "𝔽",
              "\u2028", "\udce9", "\ud800", " ", "")

    def text():
        return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))

    roll = rng.random()
    if depth < 3 and roll < 0.2:
        return {text(): _random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))}
    if depth < 3 and roll < 0.4:
        return [_random_json(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return rng.choice((
        text(), text(), 0, -rng.randint(1, 10**6), rng.randint(1, 10**6),
        rng.choice((-1, 1)) * (10**299 + rng.randint(0, 10**299)), True, False, None,
    ))


def test_report_writer_matches_json_dumps():
    # the writer against json.dumps(sort_keys=True, indent=2) on nested
    # values: escapes, control characters, non-ASCII text, lone surrogates,
    # 300-digit ints, bools, None, empty and nested containers
    rng = random.Random(2828)
    for _ in range(500):
        kind = rng.choice(("sp", "nearby", "check", "é\udce9"))
        data = {f"k{i}": _random_json(rng) for i in range(rng.randint(0, 5))}
        if rng.random() < 0.2:
            data = _random_json(rng)
        want = json.dumps({"data": data, "kind": kind}, sort_keys=True, indent=2) + "\n"
        assert Report(kind, data).to_json() == want, repr(data)
    # row-shaped lists, as a nearby class is: rows of str and int values,
    # empty rows, and rows holding a bool, None, a list or a dict
    rng = random.Random(3131)
    flat = ("0", "1/2", 'a"b', "\n", "é", "\udce9", 0, -7, 10**300, -(10**299))
    other = (True, False, None, [], [1, "x"], [[2]], {}, {"k": [3, None]})
    for _ in range(400):
        rows = []
        for _ in range(rng.randint(0, 5)):
            row = [rng.choice(flat) for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.3:
                row.insert(rng.randint(0, len(row)), rng.choice(other))
            rows.append(row)
        data = {"class": rows, "rows": [rows, *rows[:2]], "k": rng.choice(flat)}
        want = json.dumps({"data": data, "kind": "nearby"}, sort_keys=True, indent=2) + "\n"
        assert Report("nearby", data).to_json() == want, repr(data)


# multiplicities of the vertical chain of the generated benchmark models
_CHAIN = (24, 36, 60, 72, 120, 4, 180, 90)


def _chain_model_file(rng) -> tuple[dict, list]:
    """A model file shaped like the generated benchmark models, and its
    strata as (ids, entries) with exact angles: the chain E1 - ... - E8 of
    ``_CHAIN`` plus a horizontal S at its end; each single stratum lists the
    angles j/m in four bidegrees, each pair stratum gcd-many points at (0, 0).
    Entries, strata and components are shuffled; one angle is written both
    as "2/4" and as "1/2", and one entry is repeated with the opposite
    multiplicity."""
    ids = [f"E{i + 1}" for i in range(len(_CHAIN))]
    components = [{"id": c, "multiplicity": m, "kind": "vertical"} for c, m in zip(ids, _CHAIN)]
    components.append({"id": "S", "multiplicity": 1, "kind": "horizontal"})
    strata = []
    for cid, m in zip(ids, _CHAIN):
        bidegrees = ((0, 0), (1, 0), (0, 1), (1, 1))
        strata.append(([cid], [[p, q, Fraction(j, m), rng.randint(1, 3)]
                               for j in range(m) for p, q in bidegrees]))
    for (a, ma), (b, mb) in zip(zip(ids, _CHAIN), zip(ids[1:], _CHAIN[1:])):
        g = math.gcd(ma, mb)
        strata.append(([a, b], [[0, 0, Fraction(j, g), rng.randint(1, 3)] for j in range(g)]))
    strata.append(([ids[-1], "S"], [[0, 0, Fraction(0), 1]]))
    files = []
    for k, (members, entries) in enumerate(strata):
        written = [[p, q, str(f), m] for p, q, f, m in entries]
        if k == 0:  # E1, m = 24: angle 1/2 in bidegree (0, 0) also as "2/4"
            written[[e[:3] for e in written].index([0, 0, "1/2"])][2] = "2/4"
        if k == 1:  # E2: one entry, and its negative
            p, q, f, m = entries[rng.randrange(len(entries))]
            written.append([p, q, str(f), -m])
            entries = [*entries, [p, q, f, -m]]
            strata[k] = (members, entries)
        rng.shuffle(written)
        files.append({"ids": members, "cover_class": written})
    rng.shuffle(files)
    rng.shuffle(components)
    return {"n": 2, "components": components, "strata": files}, strata


def _nearby_reference(path, strata, variant) -> dict:
    """The ``nearby --json`` report from public ``EquivClass`` and
    ``FracPoly`` arithmetic: each stratum's class times (1 - L)^(k - 1)."""
    one, lef = EquivClass({(0, 0, 0): 1}), EquivClass.lefschetz()
    vertical = {f"E{i + 1}" for i in range(len(_CHAIN))}
    total = EquivClass()
    for members, entries in strata:
        k = sum(1 for i in members if i in vertical)
        if k and (variant != "open" or k == len(members)):
            cover = EquivClass([((p, q, f), m) for p, q, f, m in entries])
            total = total + cover * (one - lef) ** (k - 1)
    sp_prime = FracPoly()
    for (p, q, f), m in total.items():
        sp_prime = sp_prime + FracPoly({p + f: m})
    if variant == "local":
        sp_prime = (sp_prime - 1) * (-1) ** (2 - 1)
    return {
        "data": {
            "model": path,
            "variant": variant,
            "dimension": 2,
            "class": [[p, q, str(f), m] for (p, q, f), m in total.items()],
            "euler": sum(m for _, m in total.items()),
            "normalization": "reduced-signed" if variant == "local" else "raw",
            "sp_prime": str(sp_prime),
            "sp": str(FracPoly({2 - a: c for a, c in sp_prime.items()})),
        },
        "kind": "nearby",
    }


def test_nearby_matches_a_slow_reference_on_generated_chain_models(capsys, tmp_path):
    rng = random.Random(3232)
    for i in range(3):
        obj, strata = _chain_model_file(rng)
        model = tmp_path / f"chain{i}.json"
        model.write_text(json.dumps(obj, indent=rng.choice((None, 2))))
        for variant in ("total", "open", "local"):
            code, out, err = run(capsys, "nearby", str(model), "--variant", variant, "--json")
            assert (code, err) == (0, "")
            want = _nearby_reference(str(model), strata, variant)
            assert out == json.dumps(want, sort_keys=True, indent=2) + "\n", (i, variant)


def test_nearby_json_names_a_non_ascii_model_path(capsys, tmp_path):
    # the model path is the one user string that reaches --json as typed
    model = tmp_path / "cúsp.json"
    model.write_bytes(Path(CUSP).read_bytes())
    code, out, _ = run(capsys, "nearby", str(model), "--json")
    assert code == 0
    assert json.loads(out)["data"]["model"] == str(model)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "singspec", "sp", "x^2 + y^3", "--vars", "x,y"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t^(5/6) + t^(7/6)" in proc.stdout


def _child_env():
    """The environment with ``PYTHONPATH`` set to the package under test."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}


def _singspec(argv, stdout):
    """Exit code and stderr of ``python -m singspec ARGV`` writing to ``stdout``."""
    proc = subprocess.run(
        [sys.executable, "-m", "singspec", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    return proc.returncode, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_report_on_a_full_device_exits_2():
    with open("/dev/full", "w") as full:
        code, err = _singspec(["sp", "x^2 + y^3", "--vars", "x,y", "--json"], full)
    assert code == 2
    assert err == "error: [Errno 28] No space left on device\n"


def test_report_into_a_closed_pipe_exits_2():
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write is EPIPE
    try:
        code, err = _singspec(["check"], write_end)
    finally:
        os.close(write_end)
    assert code == 2
    assert err == "error: [Errno 32] Broken pipe\n"
    assert "Traceback" not in err and "Exception ignored" not in err


def test_zero_denominator_weight_is_named(capsys):
    for weights, item in (("1/2,1/0", "1/0"), ("1/2, 7/00 ", "7/00")):
        code, out, err = run(capsys, "sp", "x^2+y^3", "--vars", "x,y", "--weights", weights)
        assert code == 2
        assert out == ""
        assert err == f"error: bad weight list {weights!r}: zero denominator in {item!r}\n"


# (argv, sha256 of stdout and of stderr, exit code) of the fixtures, the check
# battery, the benchmark's sp ladders and the refused weights; model paths are
# relative to the repository root, and tests/record_golden.py rewrites the file
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_stdout_matches_pinned_digest(capsys, monkeypatch, entry):
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = run(capsys, *entry["argv"])
    assert code == entry["exit"]
    assert hashlib.sha256(err.encode()).hexdigest() == entry["stderr"], err
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout"]


def test_huge_decimal_exponents_exit_2_promptly(capsys, tmp_path):
    # Fraction would expand 10^999999999 for the weight and for the angle
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "n": 1,
        "components": [{"id": "V", "multiplicity": 1, "kind": "vertical"}],
        "strata": [{"ids": ["V"], "cover_class": [[0, 0, "1e-999999999", 1]]}],
    }))
    for argv, head in (
        (("sp", "x^2+y^3", "--vars", "x,y", "--weights", "1e-999999999,1/3"),
         "error: bad weight list '1e-999999999,1/3': decimal exponent -999999999 exceeds"),
        (("nearby", str(model)),
         "error: bad angle '1e-999999999': decimal exponent -999999999 exceeds"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert err.startswith(head) and err.count("\n") == 1


def _one_vertical_model(strata, n=1) -> str:
    """A model file in dimension n of ``strata``, with one vertical component
    of multiplicity 1 for each id they name."""
    ids = sorted({i for s in strata for i in s["ids"]})
    components = [{"id": i, "multiplicity": 1, "kind": "vertical"} for i in ids]
    return json.dumps({"n": n, "components": components, "strata": strata})


def test_model_past_the_angle_limit_exits_2_promptly(capsys, tmp_path):
    # angles 1/(10^50 + i): read in full, each file would take from 30 s to minutes
    angles = [f"1/{10**50 + i}" for i in range(2_000)]
    # 1,000 strata are refused at the first whose angle takes the lcm past the limit
    lcm, first = 10**50, 0
    while lcm.bit_length() <= MAX_MODEL_BITS:
        first += 1
        lcm = math.lcm(lcm, 10**50 + first)
    files = [
        (_one_vertical_model([{"ids": ["V"], "cover_class": [[0, 0, a, 1] for a in angles[:k]]}]),
         "/strata/0/cover_class")
        for k in (1_000, 2_000)
    ]
    files.append((
        _one_vertical_model([{"ids": [f"c{i}"], "cover_class": [[0, 0, a, 1]]}
                             for i, a in enumerate(angles[:1_000])]),
        f"/strata/{first}/cover_class",
    ))
    model = tmp_path / "model.json"
    for text, where in files:
        model.write_text(text)
        start = time.perf_counter()
        code, out, err = run(capsys, "nearby", str(model))
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == (
            "error: the lcm of the model's angle denominators exceeds the limit of "
            f"{MAX_MODEL_BITS} bits (at {where})\n"
        )
    # at the limit: 2^(B - 1) has exactly B bits
    d = 2 ** (MAX_MODEL_BITS - 1)
    model.write_text(_one_vertical_model([{"ids": ["V"], "cover_class": [[0, 0, f"1/{d}", 1]]}]))
    code, out, err = run(capsys, "nearby", str(model))
    assert (code, err) == (0, "") and f"sp_prime: t^(1/{d})\n" in out


def _squares(n: int) -> tuple[str, str]:
    """The sum of squares in n variables, and its --vars list."""
    names = [f"x{i}" for i in range(n)]
    return "+".join(f"{v}^2" for v in names), ",".join(names)


def test_sp_past_the_dimension_limit_exits_2_promptly(capsys):
    assert MAX_DIMENSION == 32
    # 800 variables ran a Gröbner basis for 92 s, and 30,000 names would build
    # 30,000 tuples of 30,000 ints each in the parser
    for n in (33, 800, 30_000):
        expr, names = _squares(n)
        err = _quick_refusal(capsys, ("sp", expr, "--vars", names))
        assert err == f"error: {n} variables exceed the limit of 32\n"
    expr, names = _squares(32)
    code, out, err = run(capsys, "sp", expr, "--vars", names)
    assert (code, err) == (0, "") and "mu: 1\n" in out


def test_sp_weights_past_the_digit_limit_exit_2(capsys):
    n = int(NINES)
    for argv, bits in (
        # inferred weights -1/d and (n - 1)/d, d = n^2 - n - 1
        ((f"x^{n}*y^{n + 1}+x*y^{n}", "--vars", "x,y"), (n * n - n - 1).bit_length()),
        (("x^2+y^3", "--vars", "x,y", "--weights", "1e4300,1/3"), (10**4300).bit_length()),
    ):
        err = _quick_refusal(capsys, ("sp", *argv))
        assert err == f"error: weight <{bits}-bit number> outside the open interval (0, 1)\n"


def _stratum(*entries, ids=("V",)) -> dict:
    return {"ids": list(ids), "cover_class": [list(e) for e in entries]}


def test_model_past_its_size_limits_exits_2_promptly(capsys, tmp_path):
    assert MAX_DIMENSION == 32
    angle, big = f"1/{10**60 + 7}", int(NINES)
    bits = f"p, q and the multiplicity must have at most {MAX_MODEL_BITS} bits"
    wide = [f"V{i:05}" for i in range(15_000)]
    model = tmp_path / "model.json"
    for strata, n, message in (
        ([_stratum((0, 0, angle, 1))], int(NINES[:4290]), "n exceeds the limit of 32 (at /n)"),
        ([_stratum((0, 0, "0", 1))], 33, "n exceeds the limit of 32 (at /n)"),
        ([_stratum((big, 0, angle, 1))], 1, f"{bits} (at /strata/0/cover_class/0)"),
        ([_stratum((0, -(2**MAX_MODEL_BITS), "0", 1))], 1, f"{bits} (at /strata/0/cover_class/0)"),
        ([_stratum((0, 0, "0", big), ids=[f"V{i}"]) for i in range(20)], 1,
         f"{bits} (at /strata/0/cover_class/0)"),
        # all 15,000 components in one stratum: (1 - L)^14999 took 31 s, then exit 3
        ([_stratum((0, 0, "0", 1), ids=wide)], 32,
         "a stratum of 15000 members exceeds the limit of n + 1 = 33 (at /strata)"),
        ([_stratum((0, 0, "0", 1), ids="UVW")], 1,
         "a stratum of 3 members exceeds the limit of n + 1 = 2 (at /strata)"),
    ):
        model.write_text(_one_vertical_model(strata, n))
        assert _quick_refusal(capsys, ("nearby", str(model))) == f"error: {message}\n"
    # at the limits: n = 32, 33 members, integers of MAX_MODEL_BITS bits
    top = 2**MAX_MODEL_BITS - 1
    model.write_text(_one_vertical_model([_stratum((0, 0, "0", -top), ids=wide[:33])], 32))
    code, out, err = run(capsys, "nearby", str(model), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["data"]["class"] == [
        [j, j, "0", top * (-1) ** (j + 1) * math.comb(32, j)] for j in range(33)
    ]
    model.write_text(_one_vertical_model([_stratum((top, 0, "0", 1))]))
    code, out, err = run(capsys, "nearby", str(model))
    assert (code, err) == (0, "") and f"sp_prime: t^{top}\n" in out


def test_deeply_nested_model_file_exits_2(capsys, tmp_path):
    model = tmp_path / "deep.json"
    model.write_text("[" * 100_000)
    code, out, err = run(capsys, "nearby", str(model))
    assert code == 2 and out == ""
    assert err == "error: not valid JSON: nested too deeply (at /)\n"


# one process serves them in this order; a usage error and --help leave
# through SystemExit, so each is a call the reused parser must survive
PARSER_REUSE_SEQUENCE = [
    ("sp", "x^2 + y^3", "--vars", "x,y"),
    ("sp", "x^2 + y^3"),
    ("--help",),
    ("sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,3/2"),
    ("sp", "x^2 + y^3", "--vars", "x,y"),
]


def _fresh_main(argv):
    """Exit code, stdout and stderr of one ``cli.main(ARGV)`` in a new process."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from singspec import cli; sys.exit(cli.main(sys.argv[1:]))",
         *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    got = []
    for argv in PARSER_REUSE_SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        got.append((code, out.out, out.err))
    assert [code for code, _, _ in got] == [0, 2, 0, 2, 0]
    assert got[1][2].startswith("usage: singspec sp ")
    assert got[-1] == got[0]
    assert got == [_fresh_main(argv) for argv in PARSER_REUSE_SEQUENCE]
    assert cli._build_parser() is cli._build_parser()


def test_import_does_not_build_the_parser():
    script = (
        "import contextlib, io\n"
        "from singspec import cli\n"
        "print(cli._build_parser.cache_info().currsize)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['sp', 'x^2 + y^3', '--vars', 'x,y'])\n"
        "print(cli._build_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n1\n", "")


def test_digit_separators_exit_2(capsys, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(_one_vertical_model([{"ids": ["V"], "cover_class": [[0, 0, "1/2_0", 1]]}]))
    for argv, line in (
        (("sp", "x^2+y^3", "--vars", "x,y", "--weights", "1_0/20,1/3"),
         "error: bad weight list '1_0/20,1/3': unexpected character '_'\n"),
        (("nearby", str(model)),
         "error: bad angle '1/2_0': unexpected character '_' (at /strata/0/cover_class/0)\n"),
    ):
        assert run(capsys, *argv) == (2, "", line), argv


def test_sp_vars_follow_the_library_rule(capsys):
    # past the limit and with a bad name: the count is checked first
    past = ",".join([f"x{i}" for i in range(MAX_DIMENSION)] + ["1y"])
    for names, line in (
        ("x, x", "error: duplicate variable names in 'x,x'\n"),
        (" y ,x,  y", "error: duplicate variable names in 'y,x,y'\n"),
        (past, f"error: {MAX_DIMENSION + 1} variables exceed the limit of 32\n"),
    ):
        assert run(capsys, "sp", "x^2 + y^3", "--vars", names) == (2, "", line), names
