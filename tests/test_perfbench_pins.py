"""The names perfbench wraps or calls keep resolving.

perfbench/tracing.py names the functions it wraps by module and attribute
string, and perfbench/run.py's set-up calls `cli.load_config` and
`cli.validate`. Renaming or removing one of them breaks only the traced
benchmark run, so they are checked here, reading tracing.py as it is.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ergosym import averaging, cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for m, a, _, _ in tracing.TRACED],
    ids=[f"{m}.{a}" for m, a, _, _ in tracing.TRACED],
)
def test_traced_name_resolves(module, attr):
    assert module in tracing.MODULES
    home = importlib.import_module(f"ergosym.{module}")
    if "." in attr:
        # the tracer replaces the method in its class's own __dict__
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name))[meth])
    else:
        assert callable(getattr(home, attr))


@pytest.mark.parametrize("fn", [averaging.cesaro, averaging.weighted])
def test_stream_keeps_the_parameters_the_tracer_binds(fn):
    params = inspect.signature(fn).parameters
    assert {"T", "checkpoints", "probes", "store_averages"} <= set(params)


def test_benchmark_setup_entry_points_exist():
    assert callable(cli.load_config)
    assert list(inspect.signature(cli.validate).parameters) == ["cfg", "command"]
