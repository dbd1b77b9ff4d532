"""Every module runs on the oldest supported Python and numpy.

Only newer versions may be installed where the suite runs, so the floors
declared in pyproject.toml (`requires-python` and the numpy dependency)
are checked here without them:

- every module parses with `ast.parse(..., feature_version=...)` at the
  Python floor, which catches syntax added after it (such as `except*` or
  `type` statements);
- no module under src/ reads a library name from a fixed list of names
  added after the floors, found by an AST scan with import aliases
  resolved. The list holds the names this package is most likely to reach
  for, not every addition.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = (ROOT / "pyproject.toml").read_text()
FLOOR = tuple(map(int, re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT, re.M,
).groups()))
NUMPY_FLOOR = tuple(map(int, re.search(r'"numpy>=(\d+)\.(\d+)"', PYPROJECT).groups()))
SOURCES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src").rglob("*.py"))

# library names and the release that added them: Python's, or numpy's for
# a name under numpy
NEWER_NAMES = {
    "math.fma": (3, 13),
    "math.exp2": (3, 11),
    "math.cbrt": (3, 11),
    "itertools.batched": (3, 12),
    "typing.Self": (3, 11),
    "tomllib": (3, 11),
    "numpy.exceptions": (1, 25),
    "numpy.dtypes": (1, 25),
    "numpy.trapezoid": (2, 0),
    "numpy.concat": (2, 0),
    "numpy.isdtype": (2, 0),
    "numpy.cumulative_sum": (2, 1),
    "numpy.astype": (2, 1),
    "numpy.unstack": (2, 1),
}


def _read_names(source: str) -> set[str]:
    """The dotted library names a module reads: each absolute import, and
    each attribute chain on an imported name with its alias resolved
    (`np.exceptions.AxisError` under `import numpy as np` reads
    numpy.exceptions.AxisError)."""
    tree = ast.parse(source)
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names.add(a.name)
                bound[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                names.add(f"{node.module}.{a.name}")
                bound[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            names.add(".".join([bound[node.id], *reversed(chain)]))
    return names


def _newer_than_the_floors(source: str) -> list[str]:
    """The names of NEWER_NAMES, or names under them, that a module reads
    and its floor lacks."""
    return sorted(
        name for name in _read_names(source)
        for new, since in NEWER_NAMES.items()
        if (name == new or name.startswith(new + "."))
        and since > (NUMPY_FLOOR if new.startswith("numpy.") else FLOOR)
    )


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


@pytest.mark.parametrize("path", PACKAGE, ids=[str(p.relative_to(ROOT)) for p in PACKAGE])
def test_source_reads_no_name_newer_than_the_floors(path):
    assert _newer_than_the_floors(path.read_text()) == []


@pytest.mark.parametrize("source, found", [
    ("import math\nmath.fma(1.0, 2.0, 3.0)", ["math.fma"]),
    ("from math import cbrt as root", ["math.cbrt"]),
    ("import itertools as it\nit.batched([], 2)", ["itertools.batched"]),
    ("from typing import Self", ["typing.Self"]),
    ("import tomllib", ["tomllib"]),
    ("import numpy as np\nraise np.exceptions.AxisError(0)",
     ["numpy.exceptions", "numpy.exceptions.AxisError"]),
    ("import numpy.dtypes", ["numpy.dtypes"]),
    ("from numpy import concat, concatenate", ["numpy.concat"]),
    ("import numpy as xp\nxp.unstack(xp.trapezoid)", ["numpy.trapezoid", "numpy.unstack"]),
    ("import numpy as np\nnp.concatenate([np.cumsum(x)])\nmath.fma", []),
])
def test_the_scan_finds_names_newer_than_the_floors(source, found):
    # the last source reads numpy names that the floor has, and a `math`
    # it never imports
    assert _newer_than_the_floors(source) == found
