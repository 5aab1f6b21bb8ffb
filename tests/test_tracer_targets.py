"""The benchmark's tracer wraps program functions that it looks up by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

from conftest import eq_rel, formula
from qcollapse import collapse, cspsolve
from qcollapse.model import Constraint

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


def test_collapse_verdicts_encodes_and_solves_each_collapsing_once(monkeypatch):
    # rebinds every qcollapse module attribute that is the original function,
    # as the tracer does, so a call through any import is counted
    calls = {"collapsing_to_csp": 0, "solve_csp": 0}
    for module, name in ((collapse, "collapsing_to_csp"), (cspsolve, "solve_csp")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("qcollapse."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
    phi = formula(2, "Ay1 Ex Ay2 Ez", [
        Constraint(eq_rel(), ("y1", "x")), Constraint(eq_rel(), ("x", "z")),
        Constraint(eq_rel(), ("y2", "z")),
    ])
    rows = collapse.collapse_verdicts(phi, 1, None)
    assert len(rows) == 6
    assert calls == {"collapsing_to_csp": len(rows), "solve_csp": len(rows)}
