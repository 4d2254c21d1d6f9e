"""Rewrite ``tests/golden.json``, the pinned outputs of a fixed set of requests.

    python tests/record_golden.py

Each entry holds an argv, the sha256 of its stdout and of its stderr, and
its exit code.  Every request runs in process through ``singspec.cli.main``
(imported from ``src/`` of this checkout) with the repository root as the
working directory, as ``test_cli.py::test_stdout_matches_pinned_digest``
replays it.  The ``sp`` ladders of the benchmark are drawn from
``perfbench/gen.py`` at seeds 0 and 1 and stored as literal argv, so the
replay does not import ``perfbench/``.  The script prints the argv of every
entry whose digests or exit code differ from the file it replaces.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from singspec.cli import main  # noqa: E402


def requests() -> list[list[str]]:
    """Every argv of the golden set, each with and without ``--json``."""
    plain = [
        ["nearby", f"fixtures/{name}", "--variant", variant]
        for name in ("cusp_resolution.json", "i2_semistable.json")
        for variant in ("total", "open", "local")
    ]
    plain += [
        ["sp", "x^5+y^7+z^11+w^13", "--vars", "x,y,z,w"],
        ["check"],
    ]
    for shapes in (gen.LARGE_SHAPES, gen.COUPLED_SHAPES):
        for seed in (0, 1):
            plain += [
                [a for a in r.argv() if a != "--json"] for r in gen.sp_requests(shapes, seed)
            ]
    # refused weights: inconsistent, underdetermined, not homogeneous, zero denominators
    plain += [
        ["sp", "x^2 + x^3 + y^3", "--vars", "x,y"],
        ["sp", "x*y", "--vars", "x,y"],
        ["sp", "x^2 + y^3", "--vars", "x,y", "--weights", "1/2,1/2"],
        ["sp", "x^2+y^3", "--vars", "x,y", "--weights", "1/2,1/0"],
        ["sp", "x^2+y^3", "--vars", "x,y", "--weights", "1/2, 7/00 "],
    ]
    return [argv for a in plain for argv in (a, a + ["--json"])]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "stdout": sha256(out.getvalue()),
            "stderr": sha256(err.getvalue()), "exit": code}


def main_record() -> int:
    old = {}
    if GOLDEN.exists():
        old = {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}
    os.chdir(ROOT)
    entries = [replay(argv) for argv in requests()]
    for e in entries:
        if old.get(tuple(e["argv"]), e) != e:
            print("changed:", " ".join(e["argv"]))
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} entries written to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main_record())
