"""The benchmark's tracer wraps program functions that it looks up by name."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{function}"
        for module, function, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"qcollapse.{module}"), function, None))
    ]
    assert tracing.TARGETS and not missing
