import itertools
import random

import pytest

from conftest import enumerate_solutions, eq_rel, reference_solve_csp, rel
from qcollapse.cspsolve import NODE_CAP, CspInstance, solve_csp
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.model import Constraint, Domain


def make_instance(domain_size, variables, constraints):
    return CspInstance(Domain(domain_size), tuple(variables), tuple(constraints))


class TestBasics:
    def test_single_constraint(self):
        inst = make_instance(2, ["x"], [Constraint(eq_rel(), ("x", 0))])
        assert solve_csp(inst) == {"x": 0}

    def test_contradiction(self):
        inst = make_instance(
            2, ["x"],
            [Constraint(eq_rel(), ("x", 0)), Constraint(eq_rel(), ("x", 1))],
        )
        assert solve_csp(inst) is None

    def test_unconstrained_variables_assigned(self):
        inst = make_instance(3, ["x", "y"], [])
        solution = solve_csp(inst)
        assert set(solution) == {"x", "y"}

    def test_repeated_variable_positions(self):
        neq = rel("Neq", 2, 2, [(0, 1), (1, 0)])
        inst = make_instance(2, ["x"], [Constraint(neq, ("x", "x"))])
        assert solve_csp(inst) is None

    def test_undeclared_variable_rejected(self):
        with pytest.raises(StructuralError):
            make_instance(2, ["x"], [Constraint(eq_rel(), ("x", "y"))])

    def test_deterministic_solution(self):
        any_pair = rel("Any", 2, 2, list(itertools.product(range(2), repeat=2)))
        inst = make_instance(2, ["b", "a"], [Constraint(any_pair, ("a", "b"))])
        assert solve_csp(inst) == {"a": 0, "b": 0}

    def test_node_cap(self, monkeypatch):
        neq = rel("Neq", 2, 3, [(a, b) for a in range(3) for b in range(3) if a != b])
        variables = [f"v{i}" for i in range(8)]
        constraints = [
            Constraint(neq, (a, b)) for a, b in itertools.combinations(variables, 2)
        ]
        monkeypatch.setattr("qcollapse.cspsolve.NODE_CAP", 2)
        with pytest.raises(GuardrailError):
            solve_csp(make_instance(3, variables, constraints))


def random_instance(rng: random.Random, domain_size: int, max_vars: int = 6):
    var_count = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(var_count)]
    constraints = []
    for i in range(rng.randint(1, 5)):
        arity = rng.randint(1, 3)
        rows = [
            t for t in itertools.product(range(domain_size), repeat=arity)
            if rng.random() < 0.55
        ]
        relation = rel(f"R{i}", arity, domain_size, rows or [(0,) * arity])
        args = []
        for _ in range(arity):
            if rng.random() < 0.15:
                args.append(rng.randrange(domain_size))
            else:
                args.append(variables[rng.randrange(var_count)])
        constraints.append(Constraint(relation, tuple(args)))
    return make_instance(domain_size, variables, constraints)


class TestAgainstEnumeration:
    def test_verdicts_match_enumeration(self):
        rng = random.Random(97)
        for i in range(300):
            inst = random_instance(rng, rng.choice((2, 3)))
            expected = enumerate_solutions(inst, limit=1)
            got = solve_csp(inst)
            assert (got is not None) == bool(expected), i
            if got is not None:
                assert all(c.holds(got) for c in inst.constraints)

    def test_completeness_at_twelve_variables(self):
        rng = random.Random(101)
        for _ in range(20):
            inst = random_instance(rng, 2, max_vars=12)
            expected = enumerate_solutions(inst, limit=1)
            assert (solve_csp(inst) is not None) == bool(expected)


def differential_instance(rng: random.Random):
    """Up to 9 variables over d <= 3, with constants, repeated variables and
    constant-only constraints."""
    d = rng.randint(1, 3)
    variables = [f"v{i}" for i in rng.sample(range(12), rng.randint(0, 9))]
    constraints = []
    for i in range(rng.randint(0, 12)):
        arity = rng.randint(1, 4)
        rows = [t for t in itertools.product(range(d), repeat=arity) if rng.random() < 0.6]
        relation = rel(f"R{i}", arity, d, rows)
        args = [
            rng.randrange(d) if not variables or rng.random() < 0.2 else rng.choice(variables)
            for _ in range(arity)
        ]
        if variables and rng.random() < 0.2:
            args[-1] = args[0]
        constraints.append(Constraint(relation, tuple(args)))
    return make_instance(d, variables, constraints)


def outcome(solver, inst, *node_cap):
    try:
        return solver(inst, *node_cap)
    except GuardrailError as err:
        return str(err)


class TestAgainstSnapshotSolver:
    """The trail-based bitmask core searches the same tree as the snapshot
    solver it replaced (`reference_solve_csp`)."""

    def test_identical_assignments(self):
        rng = random.Random(2024)
        shapes = {"constant_only": 0, "repeated": 0, "sat": 0, "unsat": 0}
        for i in range(1500):
            inst = differential_instance(rng)
            expected = reference_solve_csp(inst, NODE_CAP)
            got = solve_csp(inst)
            assert got == expected, i
            assert got is None or list(got) == list(expected), i
            shapes["sat" if got is not None else "unsat"] += 1
            for c in inst.constraints:
                shapes["constant_only"] += not c.variables
                shapes["repeated"] += len(c.variables) < sum(isinstance(a, str) for a in c.args)
        assert min(shapes.values()) > 50, shapes

    def test_identical_under_node_caps(self, monkeypatch):
        rng = random.Random(2025)
        capped = 0
        for i in range(600):
            inst = differential_instance(rng)
            for cap in (1, 2, 3, 5, 8):
                monkeypatch.setattr("qcollapse.cspsolve.NODE_CAP", cap)
                expected = outcome(reference_solve_csp, inst, cap)
                assert outcome(solve_csp, inst) == expected, (i, cap)
                capped += isinstance(expected, str)
        assert capped > 100
