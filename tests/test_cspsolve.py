import itertools
import random

import pytest

from conftest import csp_satisfied, enumerate_solutions, eq_rel, reference_solve_csp, rel
from qcollapse.cspsolve import NODE_CAP, CspInstance, solve_csp
from qcollapse.errors import GuardrailError


class TestBasics:
    def test_single_constraint(self):
        inst = CspInstance(2, 1, [(eq_rel(), (0, ~0))])
        assert solve_csp(inst) == [0]

    def test_contradiction(self):
        inst = CspInstance(2, 1, [(eq_rel(), (0, ~0)), (eq_rel(), (0, ~1))])
        assert solve_csp(inst) is None

    def test_unconstrained_variables_assigned(self):
        assert solve_csp(CspInstance(3, 2, [])) == [0, 0]

    def test_repeated_variable_positions(self):
        neq = rel("Neq", 2, 2, [(0, 1), (1, 0)])
        assert solve_csp(CspInstance(2, 1, [(neq, (0, 0))])) is None

    def test_deterministic_solution(self):
        any_pair = rel("Any", 2, 2, list(itertools.product(range(2), repeat=2)))
        assert solve_csp(CspInstance(2, 2, [(any_pair, (1, 0))])) == [0, 0]

    def test_node_cap(self, monkeypatch):
        neq = rel("Neq", 2, 3, [(a, b) for a in range(3) for b in range(3) if a != b])
        constraints = [(neq, pair) for pair in itertools.combinations(range(8), 2)]
        monkeypatch.setattr("qcollapse.cspsolve.NODE_CAP", 2)
        with pytest.raises(GuardrailError):
            solve_csp(CspInstance(3, 8, constraints))


def random_instance(rng: random.Random, domain_size: int, max_vars: int = 6):
    var_count = rng.randint(1, max_vars)
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
                args.append(~rng.randrange(domain_size))
            else:
                args.append(rng.randrange(var_count))
        constraints.append((relation, tuple(args)))
    return CspInstance(domain_size, var_count, constraints)


class TestAgainstEnumeration:
    def test_verdicts_match_enumeration(self):
        rng = random.Random(97)
        for i in range(300):
            inst = random_instance(rng, rng.choice((2, 3)))
            expected = enumerate_solutions(inst, limit=1)
            got = solve_csp(inst)
            assert (got is not None) == bool(expected), i
            if got is not None:
                assert csp_satisfied(inst, got)

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
    var_count = rng.randint(0, 9)
    constraints = []
    for i in range(rng.randint(0, 12)):
        arity = rng.randint(1, 4)
        rows = [t for t in itertools.product(range(d), repeat=arity) if rng.random() < 0.6]
        relation = rel(f"R{i}", arity, d, rows)
        args = [
            ~rng.randrange(d) if not var_count or rng.random() < 0.2 else rng.randrange(var_count)
            for _ in range(arity)
        ]
        if var_count and rng.random() < 0.2:
            args[-1] = args[0]
        constraints.append((relation, tuple(args)))
    return CspInstance(d, var_count, constraints)


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
            shapes["sat" if got is not None else "unsat"] += 1
            for _, args in inst.constraints:
                variables = [a for a in args if a >= 0]
                shapes["constant_only"] += not variables
                shapes["repeated"] += len(set(variables)) < len(variables)
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
