"""The README's Quick start and command-line transcripts are what the code gives.

The Quick start block runs as written, and each expression with a trailing
comment must have that comment as its repr. The test also reads the
README's demo.csv block and every `$ voteboard ...` transcript after it,
runs each command through cli.main on that file and compares its standard
output with the transcript exactly.
"""

import re
import shlex
from pathlib import Path

import pytest

from voteboard import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def code_blocks(text):
    return re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.S | re.M)


def transcripts(block):
    """(argv, expected stdout) per `$ voteboard` command; a trailing \\ continues a line."""
    out = []
    for chunk in re.split(r"^(?=\$ )", block.replace("\\\n", ""), flags=re.M)[1:]:
        command, _, expected = chunk.partition("\n")
        argv = shlex.split(command)[1:]
        assert argv[0] == "voteboard"
        out.append((argv[1:], expected.rstrip("\n") + "\n"))
    return out


BLOCKS = code_blocks(README.read_text())
DEMO_CSV = next(block for block in BLOCKS if block.startswith("system,"))
QUICK_START = next(block for block in BLOCKS if block.startswith("import voteboard"))
TRANSCRIPTS = [t for block in BLOCKS if block.startswith("$ voteboard") for t in transcripts(block)]


def test_readme_has_the_transcripts():
    assert [argv[0] for argv, _ in TRANSCRIPTS] == ["rank", "cw-weights", "compare", "experiment"]


@pytest.mark.parametrize("argv,expected", TRANSCRIPTS, ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_readme_transcript(argv, expected, tmp_path, monkeypatch, capsys):
    (tmp_path / "demo.csv").write_text(DEMO_CSV)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected


def test_readme_quick_start():
    namespace = {}
    exec(QUICK_START, namespace)
    checks = [
        (code.strip(), comment.strip())
        for code, _, comment in (line.partition("# ") for line in QUICK_START.splitlines())
        if comment
    ]
    assert [expr for expr, _ in checks] == ["out.ranking", "out.winners", 'out.scores["apex"]']
    for expr, shown in checks:
        assert repr(eval(expr, namespace)) == shown, expr
