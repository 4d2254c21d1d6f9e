import json
import subprocess
import sys
from pathlib import Path

from singspec import FracPoly
from singspec.checks import CheckResult
from singspec.cli import Report, main
from singspec.parse import MAX_NESTING

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
I2 = str(FIXTURES / "i2_semistable.json")
CUSP = str(FIXTURES / "cusp_resolution.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_sp_rejects_bad_flag_values(capsys):
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,x")
    assert code == 2 and "duplicate" in err
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,2y")
    assert code == 2
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,oops")
    assert code == 2
    code, _, err = run(capsys, "sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,1/2")
    assert code == 2 and "weighted-homogeneous" in err


def test_sp_consistency_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        "singspec.cli.sp_product_formula", lambda ws: FracPoly()
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


def test_nearby_dim_override(capsys):
    code, out, _ = run(capsys, "nearby", CUSP, "--variant", "total", "--dim", "3", "--json")
    assert code == 0
    data = json.loads(out)["data"]
    assert data["dimension"] == 3
    # raw functional, then twisted by 3
    assert data["sp_prime"] == "1 - t^(5/6) - t^(7/6)"
    assert data["sp"] == "-t^(11/6) - t^(13/6) + t^3"


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


def test_check_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        "singspec.checks.run_all",
        lambda: [CheckResult("injected", False, "synthetic failure")],
    )
    code, out, _ = run(capsys, "check")
    assert code == 1
    assert "FAIL injected" in out


def test_report_round_trip(capsys):
    _, out, _ = run(capsys, "sp", "x^3 + y^3", "--vars", "x,y", "--json")
    report = Report.from_json(out)
    assert Report.from_json(report.to_json()) == report
    assert report.to_json() == out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "singspec", "sp", "x^2 + y^3", "--vars", "x,y"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "t^(5/6) + t^(7/6)" in proc.stdout
