"""README's command-line table prints what it says it prints."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from fatpoints.cli import cli_main

README = Path(__file__).resolve().parent.parent / "README.md"

# rows whose "prints" cell is prose: the first word of the output instead
PROSE_FIRST_WORD = {"cremona-reduce": "standard:", "counterexample": "counterexample"}


def _command_table() -> list[tuple[str, str, str]]:
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            command, example, prints = (cell.strip() for cell in line.strip("|").split("|"))
            rows.append((command.strip("`"), example.strip("`"), prints))
    return rows


ROWS = _command_table()


def test_every_command_has_a_row():
    assert len(ROWS) == 12


@pytest.mark.parametrize("command, example, prints", ROWS, ids=[row[0] for row in ROWS])
def test_example_prints_what_the_table_says(command, example, prints, capsys):
    words = shlex.split(example)
    assert words[:2] == ["fatpoints", command]
    assert cli_main(words[1:]) == 0
    out = capsys.readouterr().out
    expected = re.findall(r"`([^`]+)`", prints)
    if expected:
        assert set(expected) <= set(out.splitlines())
    else:
        assert out.split()[0] == PROSE_FIRST_WORD[command]
