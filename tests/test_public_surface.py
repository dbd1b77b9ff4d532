"""Every exported function has a caller outside its own module and unit tests.

A function in `ergosym.__all__` must be called by name from another
`src/ergosym` module, from the acceptance criteria in
`tests/test_acceptance.py`, or be wrapped by the benchmark's tracer
(`perfbench/tracing.TRACED`). Classes and error types are exempt.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import ergosym

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ergosym"


def called_names(path: Path) -> set[str]:
    """Names called in a file, as f(...) or as module.f(...)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
TRACED = {attr for _, attr, _, _ in tracing.TRACED}

# calling file (module or acceptance tests) -> the names it calls
CALLS = {
    path.stem: called_names(path)
    for path in [*SRC.glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
}

FUNCTIONS = sorted(
    name for name in ergosym.__all__
    if not inspect.isclass(getattr(ergosym, name))
)


@pytest.mark.parametrize("name", FUNCTIONS)
def test_exported_function_has_a_caller(name):
    home = getattr(ergosym, name).__module__.rsplit(".", 1)[-1]
    callers = [
        stem for stem, names in CALLS.items()
        if stem not in (home, "__init__") and name in names
    ]
    assert callers or name in TRACED, (
        f"{name} is exported, but no other module, acceptance criterion or "
        "traced benchmark entry point calls it"
    )
