"""Rules on the package source itself.

`python -O` strips `assert` statements, so the package checks its
invariants with explicit exceptions; a CI step runs the whole suite
under `-O` and relies on that.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fatpoints

SOURCES = sorted(Path(fatpoints.__file__).parent.glob("*.py"))


def test_every_module_is_checked():
    assert {"blowup.py", "cli.py", "gfprime.py", "interp.py", "pipeline.py"} <= {
        p.name for p in SOURCES
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}; raise instead"
