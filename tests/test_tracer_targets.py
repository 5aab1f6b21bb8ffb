"""The benchmark's tracer wraps program functions that it looks up by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from conftest import eq_rel, formula
from qcollapse import collapse, cspsolve, polymorph
from qcollapse.cli import main
from qcollapse.model import Constraint

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LEDGER_INPUTS = Path(__file__).resolve().parent / "ledger" / "inputs"


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


def rebind(monkeypatch, original, replacement) -> None:
    """Rebind every qcollapse module attribute that is `original`, as the
    tracer does, so a call through any import reaches `replacement`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("qcollapse."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def count_encodes_and_solves(monkeypatch) -> dict[str, int]:
    """Count the calls of the encoder and of the solver."""
    calls = {"collapsing_to_csp": 0, "solve_csp": 0}
    for module, name in ((collapse, "collapsing_to_csp"), (cspsolve, "solve_csp")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        rebind(monkeypatch, original, counted)
    return calls


def polymorphism_checks(monkeypatch) -> list[tuple[str, str]]:
    """The (operation, relation) names of every polymorphism check, in call
    order."""
    checked = []
    original = polymorph.polymorphism_failure

    def counted(op, rel):
        checked.append((op.name, rel.name))
        return original(op, rel)

    rebind(monkeypatch, original, counted)
    return checked


@pytest.mark.parametrize("name, checked", [
    # AND preserves the Horn language: it is the only operation checked
    ("horn.txt", [("and", "Unit"), ("and", "Impl")]),
    # minority preserves parity, and majority is never checked
    ("affine.txt", [("and", "Even"), ("or", "Even"), ("minority", "Even")]),
    # only majority preserves 2-CNF, so the walk reaches it
    ("2cnf.txt", [("and", "Or"), ("or", "Or"), ("or", "Nand"), ("minority", "Or"),
                  ("majority", "Or"), ("majority", "Nand")]),
])
def test_two_element_solve_checks_no_operation_after_the_planned_one(
    monkeypatch, capsys, name, checked
):
    # each operation meets the smallest relation first and stops at its first
    # failure; classify lists every hit, so it checks all four operations
    calls = polymorphism_checks(monkeypatch)
    assert main(["solve", str(LEDGER_INPUTS / name)]) == 0
    assert calls == checked
    calls.clear()
    assert main(["classify", str(LEDGER_INPUTS / name)]) == 0
    capsys.readouterr()
    assert {op for op, _ in calls} == {"and", "or", "majority", "minority"}


def test_collapse_verdicts_encodes_and_solves_each_collapsing_once(monkeypatch):
    calls = count_encodes_and_solves(monkeypatch)
    phi = formula(2, "Ay1 Ex Ay2 Ez", [
        Constraint(eq_rel(), ("y1", "x")), Constraint(eq_rel(), ("x", "z")),
        Constraint(eq_rel(), ("y2", "z")),
    ])
    rows = collapse.collapse_verdicts(phi, 1, None)
    assert len(rows) == 6
    assert calls == {"collapsing_to_csp": len(rows), "solve_csp": len(rows)}


def test_conjunction_stops_at_the_first_false_widest_collapsing(monkeypatch):
    calls = count_encodes_and_solves(monkeypatch)
    # false; its first widest collapsing, y2 := 0, is false too
    phi = formula(2, "Ay1 Ex Ay2", [
        Constraint(eq_rel(), ("y1", "x")), Constraint(eq_rel(), ("x", "y2")),
    ])
    collapsings = collapse.relevant_collapsings(phi, 1, None)
    widest = [col for col in collapsings if len(col.kept_universals) == 1]
    assert (widest[0].kept_universals, widest[0].constant) == (("y1",), 0)
    assert len(widest) == 4 and len(collapsings) == 6
    assert collapse.conjunction_verdict(collapsings) is False
    assert calls == {"collapsing_to_csp": 1, "solve_csp": 1}


def test_true_conjunction_solves_each_widest_collapsing_once(monkeypatch):
    calls = count_encodes_and_solves(monkeypatch)
    phi = formula(2, "Ay1 Ex Ay2 Ez", [
        Constraint(eq_rel(), ("y1", "x")), Constraint(eq_rel(), ("y2", "z")),
    ])
    collapsings = collapse.relevant_collapsings(phi, 1, None)
    assert len(collapsings) == 6
    assert collapse.conjunction_verdict(collapsings) is True
    assert calls == {"collapsing_to_csp": 4, "solve_csp": 4}
