"""The ``$ singspec ...`` examples of README.md, replayed through the command
line and compared byte for byte with the output the README shows."""

import re
import shlex
from pathlib import Path

from singspec.cli import main

ROOT = Path(__file__).resolve().parents[1]
ELLIPSIS = "...\n"


def readme_examples():
    """(argv, expected stdout) for every fenced block opening with a
    ``$ singspec`` line."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```\n(\$ singspec .*?)^```$", text, re.S | re.M):
        command, _, output = block.partition("\n")
        yield shlex.split(command)[2:], output


def test_readme_has_the_three_subcommands():
    assert sorted(argv[0] for argv, _ in readme_examples()) == ["check", "nearby", "sp"]


def test_readme_examples_reproduce(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    for argv, expected in readme_examples():
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if ELLIPSIS in expected:
            # an elided listing: its first and last lines only
            head, tail = expected.split(ELLIPSIS)
            lines = out.splitlines(keepends=True)
            assert lines[0] == head, argv
            assert lines[-1] == tail, argv
        else:
            assert out == expected, argv
