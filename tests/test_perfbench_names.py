"""Every qtc name the benchmark's tracer looks up must resolve.

``perfbench/tracing.py`` wraps qtc functions by module and attribute name,
and ``perfbench/run.py`` reads ``qtc.qsim.backend_name``.  A deleted or
renamed one breaks every traced benchmark run, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _, _ in tracing.TRACED]


@pytest.mark.parametrize("module, attr", _traced_names() + [("qtc.qsim", "backend_name")])
def test_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
