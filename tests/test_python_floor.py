"""Every module parses with the grammar of the oldest supported Python.

Only a newer interpreter may be installed where the suite runs, so the
floor declared by `requires-python` in pyproject.toml is checked here with
`ast.parse(..., feature_version=...)`. That catches syntax added after the
floor (such as `except*` or `type` statements), not newer library calls.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(map(int, re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (ROOT / "pyproject.toml").read_text(), re.M,
).groups()))
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
